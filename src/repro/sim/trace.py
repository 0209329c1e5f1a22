"""Execution traces and semantic events — a columnar store with one index.

Protocol layers emit *semantic events* (request, start, decide, receive-brd,
receive-fck, CS enter/exit, ...) into a :class:`Trace`.  Specification
checkers evaluate the paper's Specifications 1-3 purely over the trace, never
by peeking at protocol internals, so a protocol cannot "pass" by accident of
implementation details.

Storage layout (the trial hot path emits one event per delivered protocol
message, the trace is the one per-trial structure that grows with run
length, and the spec automata re-read it, so all three sides are tuned):

* Events live in **columns**, not :class:`TraceEvent` objects: ``time``
  and ``process`` (4-byte ``array("I")`` columns, ``None`` stored as
  :data:`NO_PROCESS`; a row either refuses is not written), ``kind``
  (the string itself), the payload's field names (``keys``: a tuple
  interned per payload shape in ``_schemas``), then **one column per
  payload position** — a row keeps no tuple of its own, and a row
  shorter than the widest payload pads with ``None``.  ``emit`` adds a
  row's payload entries to a flat pending list with one ``list +=``;
  they move into their columns every few thousand entries and before
  any read.  :meth:`Trace.coded_columns` ships the columns with each
  list column as a code table (:func:`code_table`: the column's distinct
  objects and one narrow integer code a row), and :meth:`Trace.merged`
  builds the shard merge's trace from shipped columns a column at a
  time, one shard's run of rows as one slice, dropping each shard column
  as it goes.
* **One kind index** (kind → rows, in emission order, an ``array("I")``
  of row numbers) is kept on every append, so :meth:`Trace.scan` builds
  exactly the rows a checker reads and :meth:`Trace.kind_rows` is a
  lookup.
* A reader sees a payload as a dict: :meth:`Trace.scan`,
  :meth:`Trace.data_at` and the :class:`TraceEvent` views rebuild one per
  row read (``scan`` with C-level ``zip``/``map``, no Python frame a
  row).  :class:`TraceEvent` is the per-event view that ``trace[i]``,
  iteration, :meth:`Trace.of_kind` and :meth:`Trace.first` return.  A
  view is **built on demand and never cached**: the spec checkers, the
  canonical hash and the shard merge read rows and never build one.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, repeat
from operator import eq, getitem, itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.sim.determinism import blake2b

__all__ = [
    "EventKind", "TraceEvent", "Trace", "NO_PROCESS", "canonical_trace_hash",
    "code_table", "narrowest",
]


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


#: The process column's spelling of ``None`` (a global harness event): the
#: column is a 4-byte unsigned ``array`` ("I" appends fastest of the
#: integer codes), and no process id is this large.
NO_PROCESS = (1 << 32) - 1

#: Payload entries wait in a trace's flat ``_pending`` list (one row after
#: another, each padded to the store's width) and move into their columns
#: once this many have gathered, or when a reader needs them: one
#: ``list +=`` a row instead of one append per payload position.
_SETTLE_AT = 4096
#: ``_process(entry, entry)`` is a process column entry as it was emitted.
_process = {NO_PROCESS: None}.get
#: Rows a sparse :meth:`Trace.scan` gathers per column at a time.
_GATHER = 1024
#: :meth:`Trace.scan`'s ``tag`` when no tag is asked for (None is a tag:
#: that of a payload without one).
_ANY_TAG = object()


class Trace:
    """Append-only event log: columns and a kind index.

    The streaming API (:meth:`scan`, :meth:`rows_of`, :meth:`kind_rows`,
    :meth:`data_at`) reads rows; :meth:`of_kind`,
    :meth:`first`, indexing and iteration return :class:`TraceEvent` views.
    A payload is held as an interned keys tuple and one entry in each
    payload-position column; every reader gets it back as a fresh dict.
    """

    __slots__ = ("_times", "_kinds", "_procs", "_keys", "_fields", "_pending",
                 "_schemas", "_kind_rows")

    def __init__(self) -> None:
        self._times: array[int] = array("I")
        self._kinds: list[str] = []
        self._procs: array[int] = array("I")
        self._keys: list[tuple[str, ...]] = []
        #: One column per payload position; a shorter row pads with None.
        self._fields: list[list[Any]] = []
        #: The latest rows' payload entries, not yet in ``_fields``.
        self._pending: list[Any] = []
        #: Every payload shape seen: its interned keys tuple and the Nones
        #: that pad it to the store's width.
        self._schemas: dict[tuple[str, ...], tuple[tuple[str, ...], tuple[None, ...]]] = {}
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
        # The process and the time first: a value either 4-byte column
        # refuses raises before any other column grows (a refused time
        # takes its process entry back), so no half-written row is left.
        procs = self._procs
        try:
            procs.append(process)
        except TypeError:
            if process is not None:
                raise
            procs.append(NO_PROCESS)
        times = self._times
        row = len(times)
        try:
            times.append(time)
        except (TypeError, OverflowError):
            del procs[row]
            raise
        try:
            self._kind_rows[kind].append(row)
        except KeyError:
            self._kind_rows[kind] = array("I", (row,))
        self._kinds.append(kind)
        keys = tuple(data)
        try:
            schema, pad = self._schemas[keys]
        except KeyError:  # a new payload shape: intern it, widen for it
            width = self._widen(len(keys), row)
            schema, pad = self._schemas[keys] = (keys, (None,) * (width - len(keys)))
        self._keys.append(schema)
        pending = self._pending
        pending += data.values()
        pending += pad
        if len(pending) >= _SETTLE_AT:
            self._settle()

    def _widen(self, width: int, rows: int) -> int:
        """Open payload columns up to ``width`` (None for the first
        ``rows`` rows) and re-pad every shape; the store's width."""
        fields = self._settle()
        if width > len(fields):
            while len(fields) < width:
                fields.append([None] * rows)
            schemas = self._schemas
            for shape, (interned, _pad) in schemas.items():
                schemas[shape] = (interned, (None,) * (width - len(shape)))
        return len(fields)

    def _settle(self) -> list[list[Any]]:
        """The payload columns, with every pending entry moved in."""
        pending, fields = self._pending, self._fields
        if pending:
            width = len(fields)
            for position, column in enumerate(fields):
                column += pending[position::width]
            pending.clear()
        return fields

    def columns(self) -> tuple[Any, ...]:
        """The store as ``(times, kinds, processes, keys, *fields)``.

        These are the live columns — read, do not mutate.  The process
        column is an ``array("I")`` with ``None`` as :data:`NO_PROCESS`;
        ``fields`` holds one column per payload position.
        """
        return (self._times, self._kinds, self._procs, self._keys,
                *self._settle())

    def coded_columns(self) -> tuple[Any, ...]:
        """:meth:`columns` as :meth:`merged` takes them: the two arrays as
        they are, every list column as its :func:`code_table`."""
        times, kinds, procs, keys, *fields = self.columns()
        return (times, code_table(kinds), procs, code_table(keys),
                *map(code_table, fields))

    @classmethod
    def merged(
        cls, sources: list[list[Any]], runs: Sequence[tuple[int, int]]
    ) -> Trace:
        """A trace of the rows of ``sources`` — other traces'
        :meth:`coded_columns`, as lists — in the order ``runs`` gives (the
        shard merge): a run ``(source, rows)`` takes that source's next
        ``rows`` rows, so a source's rows are taken first to last.

        The store is built a column at a time, a source at a time: the
        source's code table for the column is decoded whole (one C-level
        pass) and each of its runs is one slice assignment into place
        (no dict and no per-row tuple; on a 1-tick window a run is a few
        rows), then the kind index in one pass over the kind column.
        ``sources`` are consumed: each source column is set to None as it
        is decoded, so columns the caller handed over alone (a shard's
        unpickled result) are freed as the merge goes, and its peak
        holds the merged column and one source's, not the store twice.
        A merged row holds the very objects its source's table held (the
        payload keys tuples stay one object per shape).
        """
        width = max([4, *map(len, sources)])
        # Per source, its runs as (merged row, source row, rows).
        placed: list[list[tuple[int, int, int]]] = [[] for _ in sources]
        taken = [0] * len(sources)
        total = 0
        for source, rows in runs:
            placed[source].append((total, taken[source], rows))
            taken[source] += rows
            total += rows
        columns = []
        for position in range(width):
            column = (array("I", [0]) if position in (0, 2) else [None]) * total
            for source, its_runs in zip(sources, placed):
                piece = _taken(source, position)
                if piece is not None:
                    for at, start, rows in its_runs:
                        column[at:at + rows] = piece[start:start + rows]
                del piece
            columns.append(column)
        trace = cls()
        (trace._times, trace._kinds, trace._procs, trace._keys,
         *trace._fields) = columns
        index: defaultdict[str, array[int]] = defaultdict(partial(array, "I"))
        for row, kind in enumerate(trace._kinds):
            index[kind].append(row)
        trace._kind_rows = dict(index)
        return trace

    # -- event views ---------------------------------------------------------

    def _event(self, row: int) -> TraceEvent:
        p = self._procs[row]
        return TraceEvent(self._times[row], self._kinds[row], _process(p, p),
                          self.data_at(row))

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
            self._kind_rows[kind] = rows = array("I")
        return rows

    def scan(
        self, *kinds: str, tag: Any = _ANY_TAG
    ) -> Iterator[tuple[int, str, int | None, dict[str, Any]]]:
        """Stream ``(time, kind, process, data)`` rows in emission order.

        With ``kinds`` given, only those rows are built, and with ``tag``
        only those of them whose ``data.get("tag")`` is ``tag`` (None
        included): the rows are picked through the kind index and the tag
        column before any dict exists.  Each column is gathered at the
        picked rows, a chunk at a time — unless the kinds are at least 3/4
        of the trace and every row of them is picked, when every row is
        built and the others dropped: the PIF automaton's rows are 83-96 %
        of a PIF trial's, and ``check_pif`` runs up to ~15 % faster so
        (docs/perf.md, "Why a payload is stored field-wise").  Either way a
        row is assembled by C-level ``zip``/``map``, with no Python frame
        per row and no :class:`TraceEvent`; ``data`` is a fresh dict per
        row.  This is the spec checkers' single-pass primitive.
        """
        columns: Sequence[Iterable[Any]] = (
            self._times, self._kinds, self._procs, self._procs, self._keys,
            *self._settle())
        if not kinds:
            return _rows(*columns)
        indexes = self._indexes(kinds)
        if (4 * sum(map(len, indexes)) >= 3 * len(self._times)
                and (tag is _ANY_TAG
                     or all(self._all_tagged(rows, tag) for rows in indexes))):
            return compress(_rows(*columns),
                            map(frozenset(kinds).__contains__, self._kinds))
        rows = sorted(chain.from_iterable(indexes))
        if tag is not _ANY_TAG:
            rows = self._tagged(rows, tag)
        getters = _getters(rows)
        return _rows(*(_gathered(column, getters) for column in columns))

    def _tagged(self, rows: list[int], tag: Any) -> list[int]:
        """Those of ``rows`` whose payload's ``tag`` entry is ``tag``, each
        read from the column its row's shape keeps it in."""
        tags = map(getitem, map(_TagColumns(self._settle()).__getitem__,
                                _gathered(self._keys, _getters(rows))), rows)
        return list(compress(rows, map(eq, repeat(tag), tags)))

    def _all_tagged(self, rows: Sequence[int], tag: Any) -> bool:
        """Whether every one of ``rows`` (one kind's) has one payload shape
        and ``tag`` as its ``tag`` entry: the dense path's test, a few
        C-level passes where :meth:`_tagged` looks up each row's shape
        (``check_pif`` ran ~10 % slower through it)."""
        keys = self._keys
        shape = keys[rows[0]]
        if "tag" not in shape:
            return False
        column = self._settle()[shape.index("tag")]
        for get in _getters(rows):
            shapes, tags = get(keys), get(column)
            if shapes.count(shape) != len(shapes) or tags.count(tag) != len(tags):
                return False
        return True

    def data_at(self, row: int) -> dict[str, Any]:
        """Row ``row``'s payload, as a fresh dict."""
        return dict(zip(self._keys[row], map(itemgetter(row), self._settle())))

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
        procs, fields = self._procs, self._settle()
        for t, kind, p, k, v in zip(
            self._times, self._kinds, map(_process, procs, procs), self._keys,
            zip(*fields) if fields else repeat(()),
        ):
            update(repr((t, kind, p, sorted(zip(k, v)))).encode())
            update(b"\x1e")
        return h.hexdigest()


def _taken(source: list[Any], position: int) -> Sequence[Any] | None:
    """Column ``position`` of a :meth:`Trace.merged` source, set to None
    there (None if the source has no such column); a code table comes
    back decoded, in one C-level pass."""
    if position >= len(source):
        return None
    column, source[position] = source[position], None
    if position in (0, 2):
        return column
    values, codes = column
    return list(map(getitem, repeat(values), codes))


def _rows(
    times: Iterable[int], kinds: Iterable[str], procs: Iterable[int],
    procs_again: Iterable[int], keys: Iterable[tuple[str, ...]],
    *fields: Iterable[Any],
) -> Iterator[tuple[int, str, int | None, dict[str, Any]]]:
    """:meth:`Trace.scan` rows zipped from column iterators (the process
    column twice: :data:`_process` reads an entry and its default)."""
    payloads = zip(*fields) if fields else repeat(())
    return zip(times, kinds, map(_process, procs, procs_again),
               map(dict, map(zip, keys, payloads)))


def _gathered(column: Sequence[Any], getters: list[itemgetter]) -> Iterator[Any]:
    """``column``'s entries at the rows ``getters`` name, a chunk at a
    time as the consumer reaches it."""
    return chain.from_iterable(get(column) for get in getters)


def _getters(rows: Sequence[int]) -> list[itemgetter]:
    """One itemgetter a :data:`_GATHER`-row chunk of ``rows``; of a lone
    row, a slice (itemgetter returns a lone item bare)."""
    getters = []
    for start in range(0, len(rows), _GATHER):
        chunk = rows[start:start + _GATHER]
        getters.append(itemgetter(*chunk) if len(chunk) > 1
                       else itemgetter(slice(chunk[0], chunk[0] + 1)))
    return getters


class _TagColumns(dict):
    """Payload shape → the column holding its ``tag`` entry, filled in as
    shapes are met (a merged trace's shapes are not in ``_schemas``).  A
    shape without one reads None at every row, as ``data.get("tag")``
    does: a ``defaultdict`` of None, holding only the rows asked."""

    __slots__ = ("fields",)

    def __init__(self, fields: list[list[Any]]) -> None:
        super().__init__()
        self.fields = fields

    def __missing__(self, shape: tuple[str, ...]) -> Any:
        column = self[shape] = (self.fields[shape.index("tag")]
                                if "tag" in shape else defaultdict(type(None)))
        return column


#: Unsigned ``array`` typecodes, narrowest first, each with its largest value.
_UNSIGNED = tuple((code, (1 << 8 * array(code).itemsize) - 1) for code in "BHIQ")


def narrowest(top: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds ``top``."""
    return next(code for code, largest in _UNSIGNED if top <= largest)


def code_table(column: Sequence[Any]) -> tuple[list[Any], array[int]]:
    """``column`` as ``(values, codes)``: its distinct objects in first-seen
    order and, per entry, its object's place there, in the narrowest
    unsigned ``array`` that holds them (one byte a row for up to 256).

    Distinct by identity, not equality, so ``1``, ``True`` and ``1.0``,
    or two equal strings, stay the objects they were, and the table is
    never larger than what pickle's memo would ship of the column.  Each
    pass is C-level: no Python frame a row.
    """
    # An id met for the first time takes the next code.
    code_of: defaultdict[int, int] = defaultdict(count().__next__)
    codes = list(map(code_of.__getitem__, map(id, column)))
    # Keyed by code, the table keeps first-seen order (a later row of a
    # code holds the same object).
    values = list(dict(zip(codes, column)).values())
    return values, array(narrowest(len(values) - 1), codes)


def canonical_trace_hash(trace: Trace) -> str:
    """Canonical digest of a trace: :meth:`Trace.canonical_hash`."""
    return trace.canonical_hash()
