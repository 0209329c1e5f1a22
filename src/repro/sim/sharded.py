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
  back: the trace's five columns (a row's payload as its interned keys
  tuple and its values tuple) and the merge-key column, as they sit in
  memory;
* coordinator side — :func:`merge_worker_traces` and
  :func:`merge_completions` reassemble the serial append order, the
  former as one k-way merge of the shards' already-sorted runs, streamed
  row by row into the merged trace: the coordinator holds each row once.

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

from heapq import merge
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.errors import SimulationError
from repro.sim.channel import BernoulliLoss, NoLoss
from repro.sim.trace import EventKind, Trace

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
    its emissions inherit the creator's rank.  Only ``key`` is stored, one
    plain int per row in :attr:`keys`; ``time`` and the row index are read
    from the trace columns at merge time.  Sorting all workers' rows by
    position reproduces exactly the serial engine's append order.  The
    key is recorded in :meth:`append`, the row-append every emission
    path (:meth:`~repro.sim.trace.Trace.emit`, ``ProcessHost.emit``)
    goes through.
    """

    __slots__ = ("_scheduler", "keys", "_last_time", "_last_key")

    def __init__(self, scheduler: Scheduler) -> None:
        super().__init__()
        self._scheduler = scheduler
        self.keys: list[int] = []
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
        self.keys.append(key)


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

    The trace travels as it sits in the store: its five
    :meth:`~repro.sim.trace.Trace.columns` plus the ``keys`` column of
    merge keys, row for row — no event object or payload dict is built
    to ship it.  When the worker carries an
    :class:`~repro.obs.recorder.ObsRecorder`, the shard's metric snapshot
    and spans ride along in the same record (one pickled CONTROL frame).
    """
    finals = {
        pid: sim.layer(pid, tag).request for pid in shard_pids
    } if tag else {}
    if obs is not None:
        obs.collect_sim(sim)
    return {
        "columns": trace.columns(),
        "keys": trace.keys,
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
    last tiebreak, and every merged row goes straight into the trace
    (:meth:`~repro.sim.trace.Trace.append_rows`) — nothing is sorted,
    no column is copied.  A run found out of order raises
    :class:`~repro.errors.SimulationError`.
    """
    trace = Trace()
    trace.append_rows(map(_ROW, merge(*[
        _scramble_records(shard, payload) for shard, payload in enumerate(payloads)
    ])))
    if scrambled:
        # Workers suppressed their markers: they are two rows more.
        trace.emit(0, EventKind.SCRAMBLE, None, what="processes")
    trace.append_rows(map(_ROW, merge(*[
        _inject_records(shard, payload) for shard, payload in enumerate(payloads)
    ])))
    if scrambled and fill_channels:
        trace.emit(0, EventKind.SCRAMBLE, None, what="channels", injected=injected)
    trace.append_rows(map(_ROW, merge(*[
        _run_records(shard, payload) for shard, payload in enumerate(payloads)
    ])))
    return trace


# A record is a row's place in its phase, its shard, then the row itself:
# ``(*place, shard, time, kind, process, keys, values)``.  Within one
# shard the places differ (each ends in the row number), so no comparison
# ever reaches a row's own fields.  Each generator checks its shard's run
# in order as it streams: the merge cannot reorder a run, and a payload
# comes from another interpreter.
_ROW = itemgetter(slice(-5, None))


def _out_of_order(shard: int, phase: str, row: int) -> SimulationError:
    return SimulationError(
        f"shard merge: shard {shard}'s {phase} rows are out of serial "
        f"order at its row {row} (a worker payload the merge cannot reorder)"
    )


def _scramble_records(shard: int, payload: dict[str, Any]) -> Iterator[tuple]:
    times, kinds, procs, keys, values = payload["columns"]
    last: tuple = ()
    for row in range(payload["proc_len"]):
        pid = procs[row]
        record = (-1 if pid is None else pid, row, shard,
                  times[row], kinds[row], pid, keys[row], values[row])
        if record < last:
            raise _out_of_order(shard, "scramble", row)
        last = record
        yield record


def _inject_records(shard: int, payload: dict[str, Any]) -> Iterator[tuple]:
    times, kinds, procs, keys, values = payload["columns"]
    last: tuple = ()
    start = payload["proc_len"]
    for row in range(start, payload["chan_len"]):
        fields = dict(zip(keys[row], values[row]))
        record = (fields.get("src", -1), fields.get("dst", -1), row - start,
                  shard, times[row], kinds[row], procs[row], keys[row],
                  values[row])
        if record < last:
            raise _out_of_order(shard, "inject", row)
        last = record
        yield record


def _run_records(shard: int, payload: dict[str, Any]) -> Iterator[tuple]:
    times, kinds, procs, names, values = payload["columns"]
    keys = payload["keys"]
    last: tuple = ()
    for row in range(payload["chan_len"], len(times)):
        time, key, pid = times[row], keys[row], procs[row]
        # Class-0 (driver) emissions carry no entity in their key; the
        # serial driver walks its processes in ascending pid order, so the
        # process id is the cross-worker rank.  Entity-keyed classes are
        # already total.
        record = (time, key, pid if key == 0 and pid is not None else -1, row,
                  shard, time, kinds[row], pid, names[row], values[row])
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
