"""Execution traces and semantic events — a columnar store with one index.

Protocol layers emit *semantic events* (request, start, decide, receive-brd,
receive-fck, CS enter/exit, ...) into a :class:`Trace`.  Specification
checkers evaluate the paper's Specifications 1-3 purely over the trace, never
by peeking at protocol internals, so a protocol cannot "pass" by accident of
implementation details.

Storage layout (the trial hot path emits one event per delivered protocol
message, the trace is the one per-trial structure that grows with run
length, and the spec automata re-read it, so all three sides are tuned):

* Events live in **five parallel columns** — ``time``, ``kind``,
  ``process``, the payload's field names (``keys``) and its field values
  (``values``) — instead of a list of :class:`TraceEvent` objects, so
  ``emit`` costs a few list appends.  A kind is stored as its string.  A
  payload is stored as two tuples, not a dict: an emitted row's keys
  tuple is interned in the trace's ``_schemas`` table (one object per
  emit-site shape, a handful per trial), its values tuple is the row's
  own — together about half the bytes of a dict.  :meth:`Trace.columns` ships the columns as they
  are, in any interpreter, and :meth:`Trace.append_rows` takes a stream
  of ``(time, kind, process, keys, values)`` rows — the shard merge
  appends each merged row straight from the shipped columns, keeping its
  two tuples.
* **One kind index** (kind → rows, in emission order, an ``array("l")``
  of row numbers rather than a list of int objects) is kept on every
  append, so :meth:`Trace.scan` streams exactly the rows a checker reads
  and :meth:`Trace.kind_rows` is a lookup.
* A reader sees a payload as a dict: :meth:`Trace.scan`,
  :meth:`Trace.data_at` and the :class:`TraceEvent` views rebuild one per
  row read.  :class:`TraceEvent` is the per-event view that ``trace[i]``,
  iteration, :meth:`Trace.of_kind` and :meth:`Trace.first` return.  A
  view is **built on demand and never cached**: the spec checkers, the
  canonical hash and the shard merge read rows and never build one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Iterator

from repro.sim.determinism import blake2b

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
    """Append-only event log: five columns and a kind index.

    The streaming API (:meth:`scan`, :meth:`rows_of`, :meth:`kind_rows`,
    :meth:`data_at`) reads rows; :meth:`of_kind`,
    :meth:`first`, indexing and iteration return :class:`TraceEvent` views.
    A payload is held as an interned keys tuple and a values tuple; every
    reader gets it back as a fresh dict.
    """

    __slots__ = ("_times", "_kinds", "_procs", "_keys", "_values", "_schemas",
                 "_kind_rows")

    def __init__(self) -> None:
        self._times: list[int] = []
        self._kinds: list[str] = []
        self._procs: list[int | None] = []
        self._keys: list[tuple[str, ...]] = []
        self._values: list[tuple[Any, ...]] = []
        #: Every payload shape seen, each keys tuple mapped to itself.
        self._schemas: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._kind_rows: dict[str, array[int]] = {}

    # -- appending ---------------------------------------------------------

    def emit(self, time: int, kind: str, process: int | None, **data: Any) -> None:
        """Append one event."""
        self.append(time, kind, process, data)

    def append(
        self, time: int, kind: str, process: int | None, data: dict[str, Any]
    ) -> None:
        """Append one event whose payload is ``data``: the engine's hottest
        trace operation, and the one every emission goes through."""
        rows = self._kind_rows.get(kind)
        if rows is None:
            self._kind_rows[kind] = rows = array("l")
        rows.append(len(self._times))
        self._times.append(time)
        self._kinds.append(kind)
        self._procs.append(process)
        keys = tuple(data)
        self._keys.append(self._schemas.setdefault(keys, keys))
        self._values.append(tuple(data.values()))

    def columns(self) -> tuple[
        list[int], list[str], list[int | None], list[tuple[str, ...]],
        list[tuple[Any, ...]],
    ]:
        """The store as its ``(times, kinds, procs, keys, values)`` columns.

        These are the live lists — read or pickle, do not mutate.
        """
        return self._times, self._kinds, self._procs, self._keys, self._values

    def append_rows(
        self,
        rows: Iterable[tuple[int, str, int | None, tuple[str, ...], tuple[Any, ...]]],
    ) -> None:
        """Append a stream of ``(time, kind, process, keys, values)`` rows
        (the shard merge): one :meth:`append` per row, without building a
        dict — each row's ``keys`` and ``values`` tuples are kept, not
        copied.  Shipped columns arrive with their keys tuples still shared
        (pickle keeps one object per shape), so they are not re-interned."""
        kind_rows = self._kind_rows
        times, kinds, procs = self._times, self._kinds, self._procs
        keys_col, values_col = self._keys, self._values
        row = len(times)
        for time, kind, process, keys, values in rows:
            index = kind_rows.get(kind)
            if index is None:
                kind_rows[kind] = index = array("l")
            index.append(row)
            row += 1
            times.append(time)
            kinds.append(kind)
            procs.append(process)
            keys_col.append(keys)
            values_col.append(values)

    # -- event views ---------------------------------------------------------

    def _event(self, row: int) -> TraceEvent:
        return TraceEvent(
            self._times[row], self._kinds[row], self._procs[row], self.data_at(row)
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

    def _indexes(self, kinds: tuple[str, ...]) -> list[array[int]]:
        """The non-empty row indexes of ``kinds``, each kind once."""
        get = self._kind_rows.get
        return [rows for kind in dict.fromkeys(kinds) if (rows := get(kind))]

    def rows_of(self, *kinds: str) -> list[int]:
        """Row indices of the given kinds, in emission order (a kind
        named twice is read once)."""
        return sorted(chain.from_iterable(self._indexes(kinds)))

    def kind_rows(self, kind: str) -> array[int]:
        """The *live* (append-only) row index of one kind.

        Callers may hold on to it and poll ``len()`` to watch for new events
        of that kind without rescanning — the amortized-O(1) pattern the
        round-budget guard uses.
        """
        rows = self._kind_rows.get(kind)
        if rows is None:
            self._kind_rows[kind] = rows = array("l")
        return rows

    def scan(self, *kinds: str) -> Iterator[tuple[int, str, int | None, dict[str, Any]]]:
        """Stream ``(time, kind, process, data)`` rows in emission order.

        With ``kinds`` given, only those rows are visited (via the kind
        index); without, the whole log streams.  No :class:`TraceEvent` is
        built — this is the spec checkers' single-pass primitive; ``data``
        is a fresh dict per row.
        """
        times, kind_col, procs = self._times, self._kinds, self._procs
        keys, values = self._keys, self._values
        if kinds:
            for row in self.rows_of(*kinds):
                yield (times[row], kind_col[row], procs[row],
                       dict(zip(keys[row], values[row])))
        else:
            for t, kind, p, k, v in zip(times, kind_col, procs, keys, values):
                yield t, kind, p, dict(zip(k, v))

    def data_at(self, row: int) -> dict[str, Any]:
        """Row ``row``'s payload, as a fresh dict."""
        return dict(zip(self._keys[row], self._values[row]))

    # -- event queries -------------------------------------------------------

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        """All events whose kind is one of ``kinds``, in order."""
        return [self._event(row) for row in self.rows_of(*kinds)]

    def first(self, kind: str, **fields: Any) -> TraceEvent | None:
        """The earliest event of ``kind`` matching ``fields``, or None."""
        items = list(fields.items())
        for row in self._kind_rows.get(kind, ()):
            d = self.data_at(row)
            if all(d.get(k) == v for k, v in items):
                return self._event(row)
        return None

    # -- canonical digest ----------------------------------------------------

    def canonical_hash(self) -> str:
        """Canonical digest of the trace (order, times, kinds, payloads).

        Computed straight off the columns; the byte stream is the exact one
        the equivalence CI gates have always hashed (a payload as its
        sorted ``(key, value)`` pairs), so digests are comparable across
        engines, store versions and processes.
        """
        h = blake2b(digest_size=16)
        update = h.update
        for t, kind, p, k, v in zip(
            self._times, self._kinds, self._procs, self._keys, self._values
        ):
            update(repr((t, kind, p, sorted(zip(k, v)))).encode())
            update(b"\x1e")
        return h.hexdigest()


def canonical_trace_hash(trace: Trace) -> str:
    """Canonical digest of a trace: :meth:`Trace.canonical_hash`."""
    return trace.canonical_hash()
