"""Execution traces and semantic events — a coded columnar store with one index.

Protocol layers emit *semantic events* (request, start, decide, receive-brd,
receive-fck, CS enter/exit, ...) into a :class:`Trace`.  Specification
checkers evaluate the paper's Specifications 1-3 purely over the trace, never
by peeking at protocol internals, so a protocol cannot "pass" by accident of
implementation details.

Storage layout (the trial hot path emits one event per delivered protocol
message, the trace is the one per-trial structure that grows with run
length, and the spec automata re-read it, so all three sides are tuned):

* Events live in **columns of codes**, not :class:`TraceEvent` objects:
  ``time`` and ``process`` (4-byte ``array("I")`` columns, ``None``
  stored as :data:`NO_PROCESS`), one **shape** code a row
  (``array("B")``, ``"H"`` past 256 shapes) into the trace's shape table
  of ``(kind, payload keys, tag value)``, then **one column per payload
  position** (``array("H")``, ``"I"`` past 65 536 objects) of codes into
  the trace's one **object table**: every distinct payload object *by
  identity* (so ``1``, ``True`` and ``1.0``, or two equal strings, stay
  the objects they were), code 0 being the ``None`` a row shorter than
  the widest payload pads with.  A row either 4-byte column or its shape
  key (an unhashable tag) refuses is not written.  ``emit`` adds a row
  to one pending list with two ``list +=``: its payload values, then its
  shape's padding and code; they are coded into their columns in C-level
  passes every :data:`_SETTLE_AT` rows and before any read, and a
  whole-trace read drops the ``id`` → code map it codes with.  A shard
  ships its store as it stands (:meth:`Trace.store`), and
  :meth:`Trace.merged` builds the merge's store a column at a time,
  rebasing each source's codes onto the concatenated tables.
* **One kind index** (kind → rows, in emission order, an ``array("I")``
  of row numbers) is kept on every append, so :meth:`Trace.scan` builds
  exactly the rows a checker reads and :meth:`Trace.kind_rows` is a
  lookup.
* A reader sees a payload as a dict: :meth:`Trace.scan`,
  :meth:`Trace.data_at` and the :class:`TraceEvent` views decode one per
  row read through the tables (``scan`` with C-level ``zip``/``map``, no
  Python frame a row).  :class:`TraceEvent` is the per-event view that
  ``trace[i]``, iteration, :meth:`Trace.of_kind` and :meth:`Trace.first`
  return.  A view is **built on demand and never cached**: the spec
  checkers, the canonical hash and the shard merge read rows and never
  build one.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, repeat
from operator import add, itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.sim.determinism import blake2b

__all__ = [
    "EventKind", "TraceEvent", "Trace", "NO_PROCESS", "canonical_trace_hash",
    "narrowest",
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

#: Rows whose entries (values, padding and shape code) wait in a trace's
#: pending list before they are coded into the columns: two ``list +=``
#: a row instead of one coded append per column.
_SETTLE_AT = 1024
#: ``_process(entry, entry)`` is a process column entry as it was emitted.
_process = {NO_PROCESS: None}.get
#: Rows a sparse :meth:`Trace.scan` gathers per column at a time.
_GATHER = 1024
#: :meth:`Trace.scan`'s ``tag`` when no tag is asked for (None is a tag:
#: that of a payload without one).
_ANY_TAG = object()
#: The most objects a two-byte payload column codes.
_NARROW_OBJECTS = 1 << 16


class Trace:
    """Append-only event log: coded columns, their tables and a kind index.

    The streaming API (:meth:`scan`, :meth:`rows_of`, :meth:`kind_rows`,
    :meth:`data_at`) reads rows; :meth:`of_kind`,
    :meth:`first`, indexing and iteration return :class:`TraceEvent` views.
    A payload is held as its row's shape code and one code in each
    payload-position column; every reader gets it back as a fresh dict of
    the very objects emitted.
    """

    __slots__ = ("_times", "_procs", "_shapes", "_fields", "_pending",
                 "_shape_table", "_shape_of", "_objects", "_code_of",
                 "_kind_rows")

    def __init__(self) -> None:
        self._times: array[int] = array("I")
        self._procs: array[int] = array("I")
        self._shapes: array[int] = array("B")
        #: One code column per payload position; a shorter row pads with
        #: code 0 (None).
        self._fields: list[array[int]] = []
        #: The latest rows, not yet coded: each row's payload values, the
        #: Nones that pad it to the store's width, then its shape code.
        self._pending: list[Any] = []
        #: Every shape, ``(kind, keys, tag)``, by code; and kind → keys →
        #: tag → the padding and code a row of that shape ends with.
        self._shape_table: list[tuple[str, tuple[str, ...], Any]] = []
        self._shape_of: dict[str, dict[tuple[str, ...], dict[Any, tuple]]] = {}
        #: Every payload object by code, and ``id`` → code (None after a
        #: whole-trace read or a merge, until a row is coded again).  The
        #: table holds each object, so no id in the map is reused.
        self._objects: list[Any] = [None]
        self._code_of: defaultdict[int, int] | None = _code_map(self._objects)
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
        # The shape, the process and the time first: a tag the shape table
        # or a value either 4-byte column refuses raises before any other
        # column grows (a refused time takes its process entry back), so
        # no half-written row is left.
        keys = tuple(data)
        try:
            tail = self._shape_of[kind][keys][data.get("tag")]
        except KeyError:  # a new shape: enter it, widen the store for it
            tail = self._new_shape(kind, keys, data.get("tag"))
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
        pending = self._pending
        pending += data.values()
        pending += tail
        if row % _SETTLE_AT == _SETTLE_AT - 1:
            self._settle()

    def _new_shape(self, kind: str, keys: tuple[str, ...], tag: Any) -> tuple:
        """Enter shape ``(kind, keys, tag)`` in the table, opening payload
        columns up to its width (code 0, None, for the rows so far); the
        tail a row of it ends with."""
        hash(tag)  # an unhashable tag is refused before the store changes
        fields = self._settle()
        table = self._shape_table
        code = len(table)
        table.append((kind, keys, tag))
        if narrowest(code) != self._shapes.typecode:
            self._shapes = array(narrowest(code), self._shapes)
        while len(fields) < len(keys):
            fields.append(array(self._code_type(), [0]) * len(self._times))
        self._index_shapes()
        return self._shape_of[kind][keys][tag]

    def _index_shapes(self) -> None:
        """Key every shape of the table by kind, keys and tag, each with
        the tail its rows end with at the store's width."""
        width = len(self._fields)
        shape_of: dict[str, dict[tuple[str, ...], dict[Any, tuple]]] = {}
        for code, (kind, keys, tag) in enumerate(self._shape_table):
            shape_of.setdefault(kind, {}).setdefault(keys, {})[tag] = (
                *(None,) * (width - len(keys)), code)
        self._shape_of = shape_of

    def _code_type(self) -> str:
        """The payload columns' typecode: two bytes while the object
        table fits them."""
        return "H" if len(self._objects) <= _NARROW_OBJECTS else "I"

    def _settle(self) -> list[array[int]]:
        """The payload columns, with every pending row coded in: an object
        met for the first time (by ``id``) takes the next code and joins
        the table.  Every pass is C-level."""
        pending, fields = self._pending, self._fields
        if not pending:
            return fields
        width = len(fields) + 1
        shapes = pending[width - 1::width]
        if self._shapes.typecode == "B":
            self._shapes.frombytes(bytes(shapes))
        else:
            self._shapes.extend(shapes)
        if self._code_of is None:
            self._code_of = _code_map(self._objects)
        code_of, objects = self._code_of, self._objects
        for position in range(width - 1):
            entries = pending[position::width]
            known = len(code_of)
            codes = array("I", map(code_of.__getitem__, map(id, entries)))
            if len(code_of) > known:
                # The new codes follow the table; keyed by code, a later
                # entry of a code is the same object.
                first = dict(zip(codes, entries))
                objects += map(first.__getitem__, range(
                    len(objects), len(objects) + len(code_of) - known))
                if fields[0].typecode != self._code_type():
                    fields[:] = [array("I", column) for column in fields]
            fields[position] += _narrowed(codes, fields[position].typecode)
        pending.clear()
        return fields

    def _settled(self) -> list[array[int]]:
        """The payload columns for a whole-trace read: settled, and the
        ``id`` → code map dropped (about 100 B a distinct object), which
        the next coded row rebuilds from the object table."""
        fields = self._settle()
        self._code_of = None
        return fields

    def columns(self) -> tuple[array[int], ...]:
        """The row columns, coded: ``(times, shapes, processes, *fields)``.

        These are the live arrays — read, do not mutate.  The process
        column holds ``None`` as :data:`NO_PROCESS`; a shape code indexes
        :meth:`store`'s shape table, a ``fields`` code its object table.
        """
        return (self._times, self._shapes, self._procs, *self._settled())

    def store(self) -> tuple[Any, ...]:
        """The store as it stands, as :meth:`merged` takes it:
        ``(shape table, object table, *columns())``."""
        return (self._shape_table, self._objects, *self.columns())

    @classmethod
    def merged(
        cls, sources: list[list[Any]], runs: Iterable[tuple[int, int]]
    ) -> Trace:
        """A trace of the rows of ``sources`` — other traces'
        :meth:`store`, as lists — in the order ``runs`` gives (the shard
        merge): a run ``(source, rows)`` takes that source's next ``rows``
        rows, so a source's rows are taken first to last.

        The tables are the sources' tables one after another, so a
        source's codes are rebased by the length of the tables before it
        (one C-level pass a column; the first source's stand as they
        are).  The store is built a column at a time, a source at a time:
        each of a source's runs is one slice assignment into a column
        allocated at its final size, then the kind index in one pass over
        the shape column.  No column is decoded.  ``sources`` are
        consumed: each source column is set to None as it is placed, so
        columns the caller handed over alone (a shard's unpickled result)
        are freed as the merge goes, and its peak holds the merged column
        and one source's, not the store twice.  A merged row holds the
        very objects its source's table held.
        """
        trace = cls()
        table, objects = trace._shape_table, trace._objects
        objects.clear()
        # Per source, the codes before its tables'.
        bases: list[tuple[int, int]] = []
        for source in sources:
            bases.append((len(table), len(objects)))
            table += source[0]
            objects += source[1]
            source[0] = source[1] = None
        if not objects:
            objects.append(None)
        # Per source, its runs as flat (merged row, source row, rows)
        # triples: an array, not a tuple a run.
        placed = [array("I") for _ in sources]
        taken = [0] * len(sources)
        total = 0
        for source, rows in runs:
            placed[source].extend((total, taken[source], rows))
            taken[source] += rows
            total += rows
        # Per store position from the times on: its typecode and which
        # table its codes index (None: not codes).
        layout = [("I", None), (narrowest(max(len(table) - 1, 0)), 0), ("I", None)]
        layout += [(trace._code_type(), 1)] * (max([5, *map(len, sources)]) - 5)
        columns = []
        for position, (typecode, codes) in enumerate(layout, 2):
            column = array(typecode, [0]) * total
            for source, its_runs, base in zip(sources, placed, bases):
                if position >= len(source):
                    continue  # code 0: None
                piece, source[position] = source[position], None
                rebase = 0 if codes is None else base[codes]
                if rebase or piece.typecode != typecode:
                    piece = _narrowed(
                        array("I", map(add, piece, repeat(rebase))), typecode)
                for at, start, rows in zip(*[iter(its_runs)] * 3):
                    column[at:at + rows] = piece[start:start + rows]
                del piece
            columns.append(column)
        trace._times, trace._shapes, trace._procs, *trace._fields = columns
        trace._index_shapes()
        trace._code_of = None
        kinds = [shape[0] for shape in table]
        index: defaultdict[str, array[int]] = defaultdict(partial(array, "I"))
        for row, kind in enumerate(map(kinds.__getitem__, trace._shapes)):
            index[kind].append(row)
        trace._kind_rows = dict(index)
        return trace

    # -- event views ---------------------------------------------------------

    def _event(self, row: int) -> TraceEvent:
        data = self.data_at(row)
        p = self._procs[row]
        return TraceEvent(self._times[row], self._shape_table[self._shapes[row]][0],
                          _process(p, p), data)

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
        included): the rows are picked through the kind index and the
        shape column before any dict exists.  Each column is gathered at
        the picked rows, a chunk at a time — unless the kinds are at least
        3/4 of the trace and each of their shapes is picked, when every
        row is built and the others dropped by their shape code: the PIF
        automaton's rows are 83-96 % of a PIF trial's (docs/perf.md, "Why
        a trace row is codes").  Either way a row is assembled by C-level
        ``zip``/``map``, with no Python frame per row and no
        :class:`TraceEvent`; ``data`` is a fresh dict per row.  This is
        the spec checkers' single-pass primitive.
        """
        fields = self._settled()
        if not kinds:
            return self._rows(self._times, self._shapes, self._shapes,
                              self._procs, self._procs, *fields)
        indexes = self._indexes(kinds)
        ours = {code for code, (kind, _keys, _tag) in enumerate(self._shape_table)
                if kind in kinds}
        wanted = ours if tag is _ANY_TAG else {
            code for code in ours if self._shape_table[code][2] == tag}
        if not wanted:
            return iter(())
        if wanted == ours and 4 * sum(map(len, indexes)) >= 3 * len(self._times):
            return compress(
                self._rows(self._times, self._shapes, self._shapes,
                           self._procs, self._procs, *fields),
                _marks(self._shapes, wanted))
        rows = sorted(chain.from_iterable(indexes))
        if wanted != ours:
            rows = list(compress(rows, _marks(
                array(self._shapes.typecode,
                      _gathered(self._shapes, _getters(rows))), wanted)))
        getters = _getters(rows)
        return self._rows(*(_gathered(column, getters) for column in (
            self._times, self._shapes, self._shapes, self._procs, self._procs,
            *fields)))

    def _rows(
        self, times: Iterable[int], shapes: Iterable[int],
        shapes_again: Iterable[int], procs: Iterable[int],
        procs_again: Iterable[int], *fields: Iterable[int],
    ) -> Iterator[tuple[int, str, int | None, dict[str, Any]]]:
        """:meth:`scan` rows zipped from column iterators, decoded through
        the tables (the shape column twice, for the kind and the keys; the
        process column twice: :data:`_process` reads an entry and its
        default)."""
        kinds, keys = _shape_parts(self._shape_table)
        decode = self._objects.__getitem__
        payloads = zip(*[map(decode, column) for column in fields]) if fields \
            else repeat(())
        return zip(times, map(kinds.__getitem__, shapes),
                   map(_process, procs, procs_again),
                   map(dict, map(zip, map(keys.__getitem__, shapes_again),
                                 payloads)))

    def data_at(self, row: int) -> dict[str, Any]:
        """Row ``row``'s payload, as a fresh dict."""
        fields = self._settle()
        keys = self._shape_table[self._shapes[row]][1]
        return dict(zip(keys, map(self._objects.__getitem__,
                                  map(itemgetter(row), fields))))

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
        fields = self._settled()
        procs, shapes = self._procs, self._shapes
        kinds, keys = _shape_parts(self._shape_table)
        decode = self._objects.__getitem__
        for t, kind, p, k, v in zip(
            self._times, map(kinds.__getitem__, shapes),
            map(_process, procs, procs), map(keys.__getitem__, shapes),
            zip(*[map(decode, column) for column in fields]) if fields
            else repeat(()),
        ):
            update(repr((t, kind, p, sorted(zip(k, v)))).encode())
            update(b"\x1e")
        return h.hexdigest()


def _code_map(objects: list[Any]) -> defaultdict[int, int]:
    """``id`` → code of every object of ``objects``, handing an id it
    has not met the next code."""
    return defaultdict(count(len(objects)).__next__,
                       zip(map(id, objects), range(len(objects))))


def _shape_parts(
    table: list[tuple[str, tuple[str, ...], Any]]
) -> tuple[list[str], list[tuple[str, ...]]]:
    """A shape table's kinds and payload keys, each by shape code."""
    return [shape[0] for shape in table], [shape[1] for shape in table]


#: Where an "I" code's low-order bytes sit in its four.
_LITTLE = sys.byteorder == "little"


def _narrowed(codes: array[int], typecode: str) -> array[int]:
    """``codes`` (an ``array("I")`` whose entries fit ``typecode``) as an
    ``array(typecode)``.

    Built from the codes' low-order bytes with strided slices, not one
    parsed append an entry ("B" and "H" appends go through
    ``PyArg_Parse``, ~3x the cost of a slice).
    """
    out = array(typecode)
    size = out.itemsize
    if size == 4:
        return codes
    raw, at = codes.tobytes(), 0 if _LITTLE else 4 - size
    narrow = bytearray(size * len(codes))
    for byte in range(size):
        narrow[byte::size] = raw[at + byte::4]
    out.frombytes(narrow)
    return out


def _marks(shapes: array[int], wanted: set[int]) -> Iterable[int]:
    """Per entry of ``shapes``, whether its code is ``wanted`` (one
    ``bytes.translate`` of a one-byte column)."""
    if shapes.typecode == "B":
        return shapes.tobytes().translate(
            bytes(code in wanted for code in range(256)))
    return map(frozenset(wanted).__contains__, shapes)


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


#: Unsigned ``array`` typecodes, narrowest first, each with its largest value.
_UNSIGNED = tuple((code, (1 << 8 * array(code).itemsize) - 1) for code in "BHIQ")


def narrowest(top: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds ``top``."""
    return next(code for code, largest in _UNSIGNED if top <= largest)


def canonical_trace_hash(trace: Trace) -> str:
    """Canonical digest of a trace: :meth:`Trace.canonical_hash`."""
    return trace.canonical_hash()
