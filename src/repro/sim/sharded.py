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
  back: the trace's columns and the key column, as they sit in memory;
* coordinator side — :func:`merge_worker_traces` and
  :func:`merge_completions` reassemble the serial append order, the
  former by picking rows out of the shipped columns.

No :class:`~repro.sim.trace.TraceEvent` exists on a worker, on the wire
or in the coordinator until a caller indexes or iterates the merged trace
(``tests/test_sharded.py`` counts them).

Scope: *trial-shaped* runs (scramble, request driver, run-until-served,
drain).  Mid-run channel clears and loss models with cross-channel
mutable state do not compose across shards (:data:`_SHARDABLE_LOSS`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Sequence

from repro.core.requests import CompletedRequest, RequestDriver
from repro.obs.recorder import ObsRecorder
from repro.sim.adversary import scramble_channels, scramble_processes
from repro.sim.channel import BernoulliLoss, NoLoss
from repro.sim.runtime import Simulator
from repro.sim.scheduler import Scheduler
from repro.sim.trace import EventKind, Trace

__all__ = [
    "scramble_shard",
    "shard_result_payload",
    "merge_worker_traces",
    "merge_completions",
]

#: Loss models whose draws depend only on the per-channel stream (no mutable
#: state shared across channels) — the ones shard composition preserves.
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
    position reproduces exactly the serial engine's append order.
    """

    __slots__ = ("_scheduler", "keys", "_last_time", "_last_key")

    def __init__(self, scheduler: Scheduler) -> None:
        super().__init__()
        self._scheduler = scheduler
        self.keys: list[int] = []
        self._last_time = -1
        self._last_key = 0

    def emit(self, time: int, kind: str, process: int | None, **data: Any) -> None:
        self._append(time, kind, process, data)
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

    The trace travels as it sits in the store: its four
    :meth:`~repro.sim.trace.Trace.columns` plus the ``keys`` column, row
    for row — no event object is built to ship it.  When the worker
    carries an :class:`~repro.obs.recorder.ObsRecorder`, the shard's
    metric snapshot and spans ride along in the same record (one pickled
    CONTROL frame).
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

    Each payload is a :func:`shard_result_payload` record.  The shards'
    columns are laid back to back, one sort record per row says where the
    serial engine appended it, and the rows enter the merged trace in
    that order through one :meth:`~repro.sim.trace.Trace.append_columns`.
    """
    times, kinds, procs, data = columns = [], [], [], []
    # The serial scramble emits: (0) per-host scramble emissions in pid
    # order (e.g. a scrambled-in CS occupant's cs-enter), (1) the
    # process-scramble marker, (2) one INJECT per garbage message in
    # (src asc, dst asc) channel order, (3) the channel summary; then (4)
    # the run, by (time, key, rank, row).  A record is its phase, its
    # place in the phase, and last its flat row number — shards are laid
    # out in worker order, so that is also the worker tiebreak.
    records: list[tuple[int, ...]] = []
    for payload in payloads:
        base = len(times)
        shard_times, _kinds, shard_procs, shard_data = payload["columns"]
        for column, part in zip(columns, payload["columns"]):
            column += part
        proc_len, chan_len = payload["proc_len"], payload["chan_len"]
        records += [
            (0, -1 if pid is None else pid, index, base + index)
            for index, pid in enumerate(shard_procs[:proc_len])
        ]
        records += [
            (2, d.get("src", -1), d.get("dst", -1), index, base + proc_len + index)
            for index, d in enumerate(shard_data[proc_len:chan_len])
        ]
        # Class-0 (driver) emissions carry no entity in their key; the
        # serial driver walks its processes in ascending pid order, so the
        # process id is the cross-worker rank.  Entity-keyed classes are
        # already total.
        keys = payload["keys"][chan_len:]
        ranks = [
            pid if key == 0 and pid is not None else -1
            for key, pid in zip(keys, shard_procs[chan_len:])
        ]
        records += zip(
            repeat(4), shard_times[chan_len:], keys, ranks,
            range(chan_len, len(shard_times)), range(base + chan_len, len(times)),
        )
    if scrambled:
        # Workers suppressed their markers: they are two rows more.
        records.append((1, len(times)))
        if fill_channels:
            records.append((3, len(times) + 1))
        times += (0, 0)
        kinds += (EventKind.SCRAMBLE, EventKind.SCRAMBLE)
        procs += (None, None)
        data += ({"what": "processes"}, {"what": "channels", "injected": injected})
    pick = [record[-1] for record in sorted(records)]
    trace = Trace()
    trace.append_columns(*([column[row] for row in pick] for column in columns))
    return trace


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
