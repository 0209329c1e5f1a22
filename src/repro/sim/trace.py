"""Execution traces and semantic events — a columnar store with one index.

Protocol layers emit *semantic events* (request, start, decide, receive-brd,
receive-fck, CS enter/exit, ...) into a :class:`Trace`.  Specification
checkers evaluate the paper's Specifications 1-3 purely over the trace, never
by peeking at protocol internals, so a protocol cannot "pass" by accident of
implementation details.

Storage layout (the trial hot path emits one event per delivered protocol
message, and the spec automata re-read the log, so both sides are tuned):

* Events live in **four parallel columns** — ``time``, ``kind``, ``process``
  and the payload dict — instead of a list of :class:`TraceEvent` objects,
  so ``emit`` costs a few list appends.  A kind is stored as its string:
  :meth:`Trace.columns` ships the kind column as it is, in any
  interpreter, and :meth:`Trace.append_rows` takes a stream of
  ``(time, kind, process, data)`` rows — the shard merge appends each
  merged row straight from the shipped columns, keeping its dict.
* **One kind index** (kind → rows, in emission order) is kept on every
  append, so :meth:`Trace.scan` streams exactly the rows a checker reads
  and :meth:`Trace.count` / :meth:`Trace.kind_rows` are lookups.
* :class:`TraceEvent` is the per-event view that ``trace[i]``, iteration,
  :meth:`Trace.of_kind` and :meth:`Trace.first` return.  A view is **built
  on demand and never cached**: the spec checkers, the canonical hash and
  the shard merge read rows and never build one.
"""

from __future__ import annotations

import hashlib
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
    """Append-only event log: four columns and a kind index.

    The streaming API (:meth:`scan`, :meth:`rows_of`, :meth:`kind_rows`,
    :meth:`data_at`, :meth:`count`) reads rows; :meth:`of_kind`,
    :meth:`first`, indexing and iteration return :class:`TraceEvent` views.
    """

    __slots__ = ("_times", "_kinds", "_procs", "_data", "_kind_rows")

    def __init__(self) -> None:
        self._times: list[int] = []
        self._kinds: list[str] = []
        self._procs: list[int | None] = []
        self._data: list[dict[str, Any]] = []
        self._kind_rows: dict[str, list[int]] = {}

    # -- appending ---------------------------------------------------------

    def emit(self, time: int, kind: str, process: int | None, **data: Any) -> None:
        """Append one event.  The engine's hottest trace operation."""
        self._append(time, kind, process, data)

    def _append(
        self, time: int, kind: str, process: int | None, data: dict[str, Any]
    ) -> None:
        rows = self._kind_rows.get(kind)
        if rows is None:
            self._kind_rows[kind] = rows = []
        rows.append(len(self._times))
        self._times.append(time)
        self._kinds.append(kind)
        self._procs.append(process)
        self._data.append(data)

    def columns(self) -> tuple[list[int], list[str], list[int | None], list[dict[str, Any]]]:
        """The store as its ``(times, kinds, procs, data)`` columns.

        These are the live lists — read or pickle, do not mutate.
        """
        return self._times, self._kinds, self._procs, self._data

    def append_rows(
        self, rows: Iterable[tuple[int, str, int | None, dict[str, Any]]]
    ) -> None:
        """Append a stream of ``(time, kind, process, data)`` rows (the
        shard merge): one :meth:`emit` per row, without the keyword
        round trip — each row's ``data`` dict is kept, not copied."""
        kind_rows = self._kind_rows
        times, kinds, procs, data = self._times, self._kinds, self._procs, self._data
        row = len(times)
        for time, kind, process, fields in rows:
            index = kind_rows.get(kind)
            if index is None:
                kind_rows[kind] = index = []
            index.append(row)
            row += 1
            times.append(time)
            kinds.append(kind)
            procs.append(process)
            data.append(fields)

    # -- event views ---------------------------------------------------------

    def _event(self, row: int) -> TraceEvent:
        return TraceEvent(
            self._times[row], self._kinds[row], self._procs[row], self._data[row]
        )

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._event, range(len(self._times)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._event(row) for row in range(*index.indices(len(self._times)))]
        if index < 0:
            index += len(self._times)
        if not 0 <= index < len(self._times):
            raise IndexError(index)
        return self._event(index)

    # -- streaming column API ----------------------------------------------

    def rows_of(self, *kinds: str) -> list[int]:
        """Row indices of the given kinds, in emission order."""
        lists = [rows for kind in kinds if (rows := self._kind_rows.get(kind))]
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
        rows = self._kind_rows.get(kind)
        if rows is None:
            self._kind_rows[kind] = rows = []
        return rows

    def count(self, *kinds: str) -> int:
        """Number of events of the given kinds (index lookup, no scan)."""
        return sum(len(self._kind_rows.get(kind, ())) for kind in kinds)

    def scan(self, *kinds: str) -> Iterator[tuple[int, str, int | None, dict[str, Any]]]:
        """Stream ``(time, kind, process, data)`` rows in emission order.

        With ``kinds`` given, only those rows are visited (via the kind
        index); without, the whole log streams.  No :class:`TraceEvent` is
        built — this is the spec checkers' single-pass primitive.
        """
        times, kind_col, procs, data = self._times, self._kinds, self._procs, self._data
        if kinds:
            for row in self.rows_of(*kinds):
                yield times[row], kind_col[row], procs[row], data[row]
        else:
            yield from zip(times, kind_col, procs, data)

    def data_at(self, row: int) -> dict[str, Any]:
        return self._data[row]

    # -- event queries -------------------------------------------------------

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        """All events whose kind is one of ``kinds``, in order."""
        return [self._event(row) for row in self.rows_of(*kinds)]

    def first(self, kind: str, **fields: Any) -> TraceEvent | None:
        """The earliest event of ``kind`` matching ``fields``, or None."""
        data = self._data
        items = list(fields.items())
        for row in self._kind_rows.get(kind, ()):
            d = data[row]
            if all(d.get(k) == v for k, v in items):
                return self._event(row)
        return None

    # -- canonical digest ----------------------------------------------------

    def canonical_hash(self) -> str:
        """Canonical digest of the trace (order, times, kinds, payloads).

        Computed straight off the columns; the byte stream is the exact one
        the equivalence CI gates have always hashed, so digests are
        comparable across engines, store versions and processes.
        """
        h = hashlib.blake2b(digest_size=16)
        update = h.update
        for t, kind, p, d in zip(self._times, self._kinds, self._procs, self._data):
            update(repr((t, kind, p, sorted(d.items()))).encode())
            update(b"\x1e")
        return h.hexdigest()


def canonical_trace_hash(trace: Trace) -> str:
    """Canonical digest of a trace: :meth:`Trace.canonical_hash`."""
    return trace.canonical_hash()
