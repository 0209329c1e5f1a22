"""Execution traces and semantic events — columnar, index-maintaining store.

Protocol layers emit *semantic events* (request, start, decide, receive-brd,
receive-fck, CS enter/exit, ...) into a :class:`Trace`.  Specification
checkers evaluate the paper's Specifications 1-3 purely over the trace, never
by peeking at protocol internals, so a protocol cannot "pass" by accident of
implementation details.

Storage layout (the trial hot path emits one event per delivered protocol
message, and spec checkers re-read the log many times, so both sides are
tuned):

* Events live in **parallel columns** — ``time``, ``kind`` (interned to a
  small int via a module-level table), ``process`` and the payload dict —
  instead of a list of :class:`TraceEvent` objects.  ``emit`` therefore costs
  a few list appends, not a frozen-dataclass construction.
* **kind→rows and process→rows indices** are maintained on every append, so
  :meth:`of_kind` / :meth:`for_process` / :meth:`first` / :meth:`last` are
  index lookups instead of full scans, and :meth:`scan` streams exactly the
  rows a checker cares about.
* :class:`TraceEvent` remains the public per-event view.  Views are
  **materialized lazily** (and cached per row), so code that never touches an
  event object — single-pass spec checkers, the canonical
  hash — never pays for one, while ``trace[i]``/iteration keep returning the
  exact objects older code expects.

Emission order, event content and the canonical hash are bit-identical to
the historical list-of-dataclasses store (asserted by
``tests/test_trace_store.py``); only the cost model changed.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = ["EventKind", "TraceEvent", "Trace", "canonical_trace_hash"]


class EventKind:
    """String constants naming every semantic event kind."""

    # Request lifecycle (all three protocols).
    REQUEST = "request"        # external application sets Request <- Wait
    START = "start"            # protocol switches Request Wait -> In
    DECIDE = "decide"          # protocol switches Request In -> Done

    # PIF upcalls (paper: "generate a receive-brd / receive-fck event").
    RECEIVE_BRD = "receive-brd"
    RECEIVE_FCK = "receive-fck"

    # Network-level events.
    SEND = "send"
    DELIVER = "deliver"
    DROP_FULL = "drop-full"    # sent into a full channel slot (paper: lost)
    DROP_LOSS = "drop-loss"    # lost by the loss model

    # Mutual exclusion.
    CS_ENTER = "cs-enter"
    CS_EXIT = "cs-exit"
    PHASE = "phase"            # ME phase transition

    # Harness events.
    SCRAMBLE = "scramble"      # adversary rewrote states / channels
    INJECT = "inject"          # adversary placed a message into a channel
    NOTE = "note"


# Module-level kind interning: kind strings <-> small ints.  Shared across
# traces (the kind vocabulary is tiny and global), append-only, so ids are
# stable for the process lifetime.
_KIND_IDS: dict[str, int] = {}
_KIND_NAMES: list[str] = []


def _intern_kind(kind: str) -> int:
    kid = _KIND_IDS.get(kind)
    if kid is None:
        kid = len(_KIND_NAMES)
        _KIND_IDS[kind] = kid
        _KIND_NAMES.append(kind)
    return kid


# Pre-intern the standard vocabulary so hot emits always hit the table.
for _attr, _value in vars(EventKind).items():
    if not _attr.startswith("_") and isinstance(_value, str):
        _intern_kind(_value)
del _attr, _value


@dataclass(frozen=True)
class TraceEvent:
    """One semantic event.

    ``process`` is the process at which the event happened (``None`` for
    global harness events); ``data`` carries event-specific fields such as
    the payload of a broadcast or the peer a feedback came from.
    """

    time: int
    kind: str
    process: int | None
    data: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


class Trace:
    """Append-only event log with indexed query helpers.

    Queries come in two flavours: the classic :class:`TraceEvent`-returning
    helpers (``of_kind``, ``for_process``, ``first``, ...) and the streaming
    column API (:meth:`scan`, :meth:`rows_of`, :meth:`count`, per-row
    accessors) used by the single-pass spec checkers.
    """

    __slots__ = (
        "_times", "_kind_ids", "_procs", "_data", "_views",
        "_kind_rows", "_proc_rows", "_events_cache", "_monotone",
    )

    def __init__(self) -> None:
        self._times: list[int] = []
        self._kind_ids: list[int] = []
        self._procs: list[int | None] = []
        self._data: list[dict[str, Any]] = []
        # Lazily materialized TraceEvent views, one slot per row.
        self._views: list[TraceEvent | None] = []
        self._kind_rows: dict[int, list[int]] = {}
        self._proc_rows: dict[int, list[int]] = {}
        self._events_cache: tuple[TraceEvent, ...] | None = None
        # True while times are non-decreasing (every engine emission is);
        # lets between() binary-search instead of scanning.
        self._monotone = True

    # -- appending ---------------------------------------------------------

    def emit(self, time: int, kind: str, process: int | None, **data: Any) -> None:
        """Append one event.  The engine's hottest trace operation."""
        self._append(time, kind, process, data)

    def _append(
        self, time: int, kind: str, process: int | None, data: dict[str, Any]
    ) -> None:
        times = self._times
        row = len(times)
        if times and time < times[-1]:
            self._monotone = False
        times.append(time)
        kid = _KIND_IDS.get(kind)
        if kid is None:
            kid = _intern_kind(kind)
        self._kind_ids.append(kid)
        self._procs.append(process)
        self._data.append(data)
        self._views.append(None)
        rows = self._kind_rows.get(kid)
        if rows is None:
            self._kind_rows[kid] = rows = []
        rows.append(row)
        if process is not None:
            prows = self._proc_rows.get(process)
            if prows is None:
                self._proc_rows[process] = prows = []
            prows.append(row)
        self._events_cache = None

    def columns(self) -> tuple[list[int], list[str], list[int | None], list[dict[str, Any]]]:
        """The store as ``(times, kinds, procs, data)`` columns.

        Kinds go **by name**: the interned ids are a process-local,
        append-only table and mean nothing in another interpreter.  The
        other three are the live lists — read or pickle, do not mutate.
        """
        names = _KIND_NAMES
        return self._times, [names[kid] for kid in self._kind_ids], self._procs, self._data

    def append_columns(
        self, times: list[int], kinds: list[str], procs: list[int | None],
        data: list[dict[str, Any]],
    ) -> None:
        """Append whole :meth:`columns`-shaped columns (trace merging).

        Equivalent to one :meth:`emit` per row — kinds interned here, both
        indices and the monotone flag maintained — but the columns are
        extended in bulk, the indices rebuilt in a single pass, and no
        :class:`TraceEvent` is built: views stay lazy.
        """
        row = len(self._times)
        if self._monotone and (
            times != sorted(times) or (row and times and times[0] < self._times[-1])
        ):
            self._monotone = False
        for kind in set(kinds):
            self.kind_rows(kind)  # interns the name, opens its index
        for process in set(procs) - {None}:
            self._proc_rows.setdefault(process, [])
        kind_ids = list(map(_KIND_IDS.__getitem__, kinds))
        self._times += times
        self._kind_ids += kind_ids
        self._procs += procs
        self._data += data
        self._views += [None] * len(times)
        kind_rows, proc_rows = self._kind_rows, self._proc_rows
        for row, (kid, process) in enumerate(zip(kind_ids, procs), row):
            kind_rows[kid].append(row)
            if process is not None:
                proc_rows[process].append(row)
        self._events_cache = None

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append pre-built events; views are reused."""
        for e in events:
            self._append(e.time, e.kind, e.process, e.data)
            self._views[-1] = e

    # -- view materialization ---------------------------------------------

    def _event(self, row: int) -> TraceEvent:
        view = self._views[row]
        if view is None:
            view = TraceEvent(
                self._times[row],
                _KIND_NAMES[self._kind_ids[row]],
                self._procs[row],
                self._data[row],
            )
            self._views[row] = view
        return view

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceEvent]:
        event = self._event
        for row in range(len(self._times)):
            yield event(row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._event(row) for row in range(*index.indices(len(self._times)))]
        if index < 0:
            index += len(self._times)
        if not 0 <= index < len(self._times):
            raise IndexError(index)
        return self._event(index)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All events as a tuple — cached, so repeated access is free."""
        cache = self._events_cache
        if cache is None:
            cache = self._events_cache = tuple(self)
        return cache

    # -- streaming column API ----------------------------------------------

    def rows_of(self, *kinds: str) -> list[int]:
        """Row indices of the given kinds, in emission order."""
        lists = [
            rows
            for kind in kinds
            if (rows := self._kind_rows.get(_KIND_IDS.get(kind, -1)))
        ]
        if not lists:
            return []
        if len(lists) == 1:
            return lists[0][:]
        merged: list[int] = []
        for rows in lists:
            merged.extend(rows)
        merged.sort()
        return merged

    def kind_rows(self, kind: str) -> list[int]:
        """The *live* (append-only) row index of one kind.

        Callers may hold on to it and poll ``len()`` to watch for new events
        of that kind without rescanning — the amortized-O(1) pattern the
        round-budget guard uses.
        """
        kid = _KIND_IDS.get(kind)
        if kid is None:
            kid = _intern_kind(kind)
        rows = self._kind_rows.get(kid)
        if rows is None:
            self._kind_rows[kid] = rows = []
        return rows

    def count(self, *kinds: str) -> int:
        """Number of events of the given kinds (index lookup, no scan)."""
        return sum(
            len(self._kind_rows.get(_KIND_IDS.get(kind, -1), ()))
            for kind in kinds
        )

    def scan(self, *kinds: str) -> Iterator[tuple[int, str, int | None, dict[str, Any]]]:
        """Stream ``(time, kind, process, data)`` rows in emission order.

        With ``kinds`` given, only those rows are visited (via the kind
        index); without, the whole log streams.  No :class:`TraceEvent` is
        materialized — this is the spec checkers' single-pass primitive.
        """
        times = self._times
        kind_ids = self._kind_ids
        procs = self._procs
        data = self._data
        names = _KIND_NAMES
        if kinds:
            for row in self.rows_of(*kinds):
                yield times[row], names[kind_ids[row]], procs[row], data[row]
        else:
            for row in range(len(times)):
                yield times[row], names[kind_ids[row]], procs[row], data[row]

    def data_at(self, row: int) -> dict[str, Any]:
        return self._data[row]

    # -- classic event queries ---------------------------------------------

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        """All events whose kind is one of ``kinds``, in order."""
        event = self._event
        return [event(row) for row in self.rows_of(*kinds)]

    def for_process(self, pid: int, *kinds: str) -> list[TraceEvent]:
        """Events at process ``pid``, optionally restricted to ``kinds``."""
        rows = self._proc_rows.get(pid, ())
        event = self._event
        if not kinds:
            return [event(row) for row in rows]
        wanted = {
            kid for kind in kinds if (kid := _KIND_IDS.get(kind)) is not None
        }
        kind_ids = self._kind_ids
        return [event(row) for row in rows if kind_ids[row] in wanted]

    def between(self, t0: int, t1: int) -> list[TraceEvent]:
        """Events with ``t0 <= time <= t1``."""
        times = self._times
        event = self._event
        if self._monotone:
            lo = bisect_left(times, t0)
            hi = bisect_right(times, t1)
            return [event(row) for row in range(lo, hi)]
        return [
            event(row) for row, t in enumerate(times) if t0 <= t <= t1
        ]

    def where(self, **fields: Any) -> list[TraceEvent]:
        """Events whose data contains every given key/value pair."""
        items = list(fields.items())
        event = self._event
        return [
            event(row)
            for row, d in enumerate(self._data)
            if all(d.get(k) == v for k, v in items)
        ]

    def first(self, kind: str, **fields: Any) -> TraceEvent | None:
        """The earliest event of ``kind`` matching ``fields``, or None."""
        rows = self._kind_rows.get(_KIND_IDS.get(kind, -1))
        if not rows:
            return None
        data = self._data
        items = list(fields.items())
        for row in rows:
            d = data[row]
            if all(d.get(k) == v for k, v in items):
                return self._event(row)
        return None

    def last(self, kind: str, **fields: Any) -> TraceEvent | None:
        """The latest event of ``kind`` matching ``fields``, or None."""
        rows = self._kind_rows.get(_KIND_IDS.get(kind, -1))
        if not rows:
            return None
        data = self._data
        items = list(fields.items())
        for row in reversed(rows):
            d = data[row]
            if all(d.get(k) == v for k, v in items):
                return self._event(row)
        return None

    # -- canonical digest ---------------------------------------------------

    def canonical_hash(self) -> str:
        """Canonical digest of the trace (order, times, kinds, payloads).

        Computed straight off the columns (no view materialization); the
        byte stream is the exact one the equivalence CI gates historically
        hashed, so digests are comparable across engines, store versions and
        processes.
        """
        h = hashlib.blake2b(digest_size=16)
        update = h.update
        names = _KIND_NAMES
        for t, kid, p, d in zip(self._times, self._kind_ids, self._procs, self._data):
            update(repr((t, names[kid], p, sorted(d.items()))).encode())
            update(b"\x1e")
        return h.hexdigest()


def canonical_trace_hash(trace: "Trace | Iterable[TraceEvent]") -> str:
    """Canonical digest of any trace-like event sequence.

    Delegates to :meth:`Trace.canonical_hash` for column-backed traces and
    falls back to hashing materialized events (legacy stores, raw event
    lists) with the identical byte stream.
    """
    if isinstance(trace, Trace):
        return trace.canonical_hash()
    h = hashlib.blake2b(digest_size=16)
    for e in trace:
        h.update(repr((e.time, e.kind, e.process, sorted(e.data.items()))).encode())
        h.update(b"\x1e")
    return h.hexdigest()
