"""The keyed-trace algorithm: how per-shard runs merge back into the one
serial trace.

A topology partitioned into shards (:mod:`repro.sim.partition`) is run by
one worker per shard, each hosting a :class:`~repro.sim.runtime.Simulator`
slice (``hosts_for=shard_pids``), synchronized by the **conservative
time-window protocol** of :mod:`repro.net.cluster` (``engine=sharded`` and
``engine=cluster`` — the only implementation):

* Simulated time is cut into windows bounded by the *lookahead*: the
  minimum latency lower bound over **cross-shard** edges
  (:meth:`Partition.latency_floor`).  Intra-shard edges never traverse a
  barrier, so only the cut constrains the window — on a WAN-weighted
  clustered topology (intra lo=1, cross lo=16) the window widens from 1
  to 16 ticks, an order of magnitude fewer barriers.
* A send whose destination lives in another shard admits into the
  source-side channel copy as usual (slot accounting, FIFO clocks and the
  latency draw are all owned by the sender's shard — see
  :meth:`Simulator._schedule_delivery`) and is shipped at the barrier; the
  destination schedules the dispatch at the *sender-computed* delivery
  time, which the window bound puts in its future.

Combined with per-entity random streams and canonical event keys
(:mod:`repro.sim.determinism`), the merged result is **bit-identical to
the serial engine**.  This module holds the two halves of that merge,
shared by every worker and the coordinator:

* worker side — :class:`_KeyedTrace` records one sortable key per
  emission, :func:`scramble_shard` scrambles one slice with the setup
  segments marked, :func:`shard_result_payload` is the record shipped
  back: the trace's store as it stands
  (:meth:`~repro.sim.trace.Trace.store`: its shape and object tables,
  and its columns of times, processes and codes, mostly one or two bytes
  a row where a list held an 8-byte pointer); the merge key as two
  columns, ``key_hi`` an ``array("Q")`` and ``key_lo`` (the per-entity
  counter) in the narrowest typecode that holds its largest value — a
  row's time, key and codes arrive unboxed, as raw bytes;
* coordinator side — :func:`merge_worker_traces` and
  :func:`merge_completions` reassemble the serial append order, the
  former as one k-way merge of the shards' already-sorted runs that
  yields the shard order, then :meth:`~repro.sim.trace.Trace.merged`
  builds the trace from it a column at a time.  The merge *consumes*
  its payloads: a shard column is let go as soon as its merged column
  exists, so the coordinator holds one column twice at a time, never
  the shards' store and the merged one together.

No :class:`~repro.sim.trace.TraceEvent` exists on a worker, on the wire
or in the coordinator until a caller indexes or iterates the merged trace
(``tests/test_sharded.py`` counts them).  The coordinator imports this
module for the merge alone, so the worker-side names (simulator,
adversary, recorder) are loaded only where a shard runs.

Scope: *trial-shaped* runs (scramble, request driver, run-until-served,
drain).  Mid-run channel clears and loss models with cross-channel
mutable state do not compose across shards (:data:`_SHARDABLE_LOSS`).
"""

from __future__ import annotations

from array import array
from heapq import merge
from itertools import chain, count, groupby, islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.errors import SimulationError
from repro.sim.channel import BernoulliLoss, NoLoss
from repro.sim.determinism import SEQ_BITS, SEQ_MAX
from repro.sim.trace import NO_PROCESS, EventKind, Trace, narrowest

if TYPE_CHECKING:
    from repro.core.requests import CompletedRequest, RequestDriver
    from repro.obs.recorder import ObsRecorder
    from repro.sim.runtime import Simulator
    from repro.sim.scheduler import Scheduler

__all__ = [
    "scramble_shard",
    "shard_result_payload",
    "merge_worker_traces",
    "merge_completions",
]

#: Loss models whose draws depend only on the sender's send stream (no
#: mutable state of their own) — the ones shard composition preserves.
_SHARDABLE_LOSS: tuple[type, ...] = (NoLoss, BernoulliLoss)


class _KeyedTrace(Trace):
    """A trace that records, per event, a globally sortable position.

    The position is ``(time, key, row)`` where ``key`` is the canonical
    scheduler key of the event being executed when the emission happened,
    *monotonized* within the tick: an event scheduled mid-tick with a
    lower key (e.g. a zero-delay timer) executes after its creator, so
    its emissions inherit the creator's rank.  Only ``key`` is stored, as
    two ``array("Q")`` columns a row: :attr:`key_hi` (class and pids,
    ``key >> SEQ_BITS``) and :attr:`key_lo` (the per-entity counter), which
    order as the 86-bit key does; ``time`` and the row index are read
    from the trace columns at merge time.  Sorting all workers' rows by
    position reproduces exactly the serial engine's append order.  The
    key is recorded in :meth:`append`, the row-append every emission
    path (:meth:`~repro.sim.trace.Trace.emit`, ``ProcessHost.emit``)
    goes through.
    """

    __slots__ = ("_scheduler", "key_hi", "key_lo", "_last_time", "_last_key")

    def __init__(self, scheduler: Scheduler) -> None:
        super().__init__()
        self._scheduler = scheduler
        self.key_hi: array[int] = array("Q")
        self.key_lo: array[int] = array("Q")
        self._last_time = -1
        self._last_key = 0

    def append(
        self, time: int, kind: str, process: int | None, data: dict[str, Any]
    ) -> None:
        Trace.append(self, time, kind, process, data)
        key = self._scheduler.current_key
        if time == self._last_time and key < self._last_key:
            key = self._last_key
        self._last_time = time
        self._last_key = key
        self.key_hi.append(key >> SEQ_BITS)
        self.key_lo.append(key & SEQ_MAX)


def scramble_shard(
    sim: Simulator,
    trace: _KeyedTrace,
    scramble_seed: int | None,
    fill_channels: bool,
) -> tuple[int, int, int]:
    """Scramble one shard's slice, recording setup segment boundaries.

    Same derivation as ``scramble_system``, but with the trace markers
    suppressed and the segment lengths recorded: per-host scramble
    emissions (e.g. a scrambled-in CS occupant's cs-enter) precede the
    channel INJECTs in serial order, and :func:`merge_worker_traces`
    reconstructs the markers once, globally.  Returns
    ``(injected, proc_len, chan_len)``.
    """
    # Worker side only: the coordinator's merge never loads the adversary.
    from repro.sim.adversary import scramble_channels, scramble_processes

    injected = 0
    proc_len = chan_len = 0
    if scramble_seed is not None:
        scramble_processes(sim, scramble_seed, emit_trace=False)
        proc_len = len(trace)
        if fill_channels:
            injected = scramble_channels(sim, scramble_seed, emit_trace=False)
        chan_len = len(trace)
    return injected, proc_len, chan_len


def shard_result_payload(
    sim: Simulator,
    trace: _KeyedTrace,
    proc_len: int,
    chan_len: int,
    shard_pids: Sequence[int],
    driver: "RequestDriver | None",
    tag: str | None,
    obs: ObsRecorder | None = None,
) -> dict[str, Any]:
    """The per-shard result record a worker ships back.

    The trace travels as its
    :meth:`~repro.sim.trace.Trace.store` plus the ``keys`` pair
    of merge-key columns, row for row, ``key_lo`` narrowed to the
    smallest typecode that holds it — no event object or payload dict is
    built to ship it.  When the worker carries an
    :class:`~repro.obs.recorder.ObsRecorder`, the shard's metric snapshot
    and spans ride along in the same record (one pickled CONTROL frame).
    """
    finals = {
        pid: sim.layer(pid, tag).request for pid in shard_pids
    } if tag else {}
    if obs is not None:
        obs.collect_sim(sim)
    key_lo = trace.key_lo
    return {
        "store": trace.store(),
        "keys": (trace.key_hi, array(narrowest(max(key_lo, default=0)), key_lo)),
        "proc_len": proc_len,
        "chan_len": chan_len,
        "stats": sim.stats,
        "finals": finals,
        "completions": driver.completed() if driver else [],
        "obs": obs.worker_payload() if obs is not None else None,
    }


def merge_worker_traces(
    payloads: list[dict[str, Any]],
    scrambled: bool,
    fill_channels: bool,
    injected: int,
) -> Trace:
    """Merge per-shard keyed traces back into the serial append order.

    Each payload is a :func:`shard_result_payload` record.  The serial
    scramble emits: (0) per-host scramble emissions in pid order (e.g. a
    scrambled-in CS occupant's cs-enter), (1) the process-scramble
    marker, (2) one INJECT per garbage message in (src asc, dst asc)
    channel order, (3) the channel summary; then (4) the run, by
    ``(time, key, rank, row)``.  A shard's rows of one phase are a
    subsequence of that order, so each is already a sorted run: the
    phase is one k-way merge of the shards' runs, the shard index the
    last tiebreak, and the merged shard order, as runs of one shard's
    rows, builds the trace (:meth:`~repro.sim.trace.Trace.merged`) —
    nothing is sorted.  A run found out of order raises
    :class:`~repro.errors.SimulationError`.  The payloads are consumed:
    they hold no ``store`` or ``keys`` afterwards.
    """
    # The two markers (1) and (3) are one more source, taken between
    # the phases.
    markers = Trace()
    if scrambled:
        # Workers suppressed their markers: they are two rows more.
        markers.emit(0, EventKind.SCRAMBLE, None, what="processes")
        if fill_channels:
            markers.emit(0, EventKind.SCRAMBLE, None, what="channels",
                         injected=injected)
    marker = len(payloads)
    # The runs as two arrays (shard, rows), not a tuple a run: they are
    # held through the merge.
    shards, lengths = array("I"), array("I")
    for source, rows in groupby(chain(
        _phase(_scramble_records, payloads),
        repeat(marker, int(scrambled)),
        _phase(_inject_records, payloads),
        repeat(marker, int(scrambled and fill_channels)),
        _phase(_run_records, payloads),
    )):
        shards.append(source)
        lengths.append(len(list(rows)))
    # The order is read; now the payloads' stores are handed over, to
    # be let go column by column as the merged trace is built.
    sources = []
    for payload in payloads:
        del payload["keys"]
        sources.append(list(payload.pop("store")))
    return Trace.merged([*sources, list(markers.store())], zip(shards, lengths))


def _phase(records, payloads: list[dict[str, Any]]) -> Iterator[int]:
    """The shard of each row of one phase, in merged order."""
    return map(_SHARD, merge(*[
        records(shard, payload) for shard, payload in enumerate(payloads)]))


# A record is a row's place in its phase, then its shard: ``(*place,
# shard)``.  Within one shard the places differ (each ends in the row
# number), so no comparison ever reaches past the shard.  Each generator
# checks its shard's run in order as it streams: the merge cannot reorder
# a run, and a payload comes from another interpreter.
_SHARD = itemgetter(-1)


def _out_of_order(shard: int, phase: str, row: int) -> SimulationError:
    return SimulationError(
        f"shard merge: shard {shard}'s {phase} rows are out of serial "
        f"order at its row {row} (a worker payload the merge cannot reorder)"
    )


def _scramble_records(shard: int, payload: dict[str, Any]) -> Iterator[tuple]:
    procs = payload["store"][4]
    last: tuple = ()
    for row in range(payload["proc_len"]):
        pid = procs[row]
        record = (-1 if pid == NO_PROCESS else pid, row, shard)
        if record < last:
            raise _out_of_order(shard, "scramble", row)
        last = record
        yield record


def _inject_records(shard: int, payload: dict[str, Any]) -> Iterator[tuple]:
    table, objects, _times, shapes, _procs, *fields = payload["store"]
    # Per shape (by its code), the code columns its src and dst sit in
    # (None: the shape has none, read as -1).
    where: dict[int, list] = {}
    last: tuple = ()
    start = payload["proc_len"]
    for row, code in enumerate(shapes[start:payload["chan_len"]], start):
        try:
            src, dst = where[code]
        except KeyError:
            keys = table[code][1]
            src, dst = where[code] = [
                fields[keys.index(name)] if name in keys else None
                for name in ("src", "dst")]
        record = (-1 if src is None else objects[src[row]],
                  -1 if dst is None else objects[dst[row]], row - start, shard)
        if record < last:
            raise _out_of_order(shard, "inject", row)
        last = record
        yield record


def _run_records(shard: int, payload: dict[str, Any]) -> Iterator[tuple]:
    _table, _objects, times, _shapes, procs, *_ = payload["store"]
    start = payload["chan_len"]
    last: tuple = ()
    for row, time, hi, lo, pid in zip(count(start), *(
            islice(column, start, None)
            for column in (times, *payload["keys"], procs))):
        # Class-0 (driver) emissions carry no entity in their key; the
        # serial driver walks its processes in ascending pid order, so the
        # process id is the cross-worker rank.  Entity-keyed classes are
        # already total.
        record = (time, hi, lo, -1 if hi or lo or pid == NO_PROCESS else pid,
                  row, shard)
        if record < last:
            raise _out_of_order(shard, "run", row)
        last = record
        yield record


def merge_completions(payloads: list[dict[str, Any]]) -> list[CompletedRequest]:
    """Reassemble the serial completion order from per-shard records:
    collect per pid ascending, then stable-sort by completion time
    (``RequestDriver.completed`` does exactly this)."""
    per_pid: dict[int, list[CompletedRequest]] = {}
    for payload in payloads:
        for completion in payload["completions"]:
            per_pid.setdefault(completion.pid, []).append(completion)
    completions: list[CompletedRequest] = []
    for pid in sorted(per_pid):
        completions.extend(per_pid[pid])
    completions.sort(key=lambda c: c.completed_at)
    return completions
