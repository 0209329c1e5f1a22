"""Sharded multi-process simulation engine.

:class:`ShardedSimulator` partitions a topology into shards
(:mod:`repro.sim.partition`), runs each shard's scheduler/network inside its
own ``multiprocessing`` worker, and synchronizes the workers with a
**conservative time-window protocol**:

* Simulated time is cut into windows of ``window`` ticks, with ``window``
  bounded by the engine's *lookahead*: the minimum latency lower bound
  over **cross-shard** edges (:meth:`Partition.latency_floor`).  Intra-shard
  edges never traverse a barrier, so only the cut constrains the window —
  on a WAN-weighted clustered topology (intra lo=1, cross lo=16) the
  window widens from 1 to 16 ticks, an order of magnitude fewer barriers.
  Without per-edge weights the cut floor equals the global latency lower
  bound and the classic ``window <= lo`` rule is recovered unchanged.
* Each worker advances its shard to the window end.  A send whose
  destination lives in another shard admits into the source-side channel
  copy as usual (slot accounting, FIFO clocks and the latency draw are all
  owned by the sender's shard — see :meth:`Simulator._schedule_delivery`),
  and the message is buffered in the worker's outbox.
* At the barrier the driver routes every outbox entry to its destination
  shard, which schedules the dispatch at the *sender-computed* delivery
  time.  Because every cross-shard delivery time is at least ``send +``
  the edge's latency floor and the window never exceeds the minimum such
  floor over the cut, a message handed over at a barrier is always
  scheduled in the destination's future — no straggler can violate
  causality.

Combined with per-entity random streams and canonical event keys
(:mod:`repro.sim.determinism`), the result is **bit-identical to the serial
engine**: same trace events, same stats, same final states, for the same
seed — the ``shard-equivalence`` CI job and ``tests/test_sharded.py`` assert
exactly that.  Workers are forked, so build closures need not be picklable.

Scope: the sharded engine drives *trial-shaped* runs (scramble, request
driver, run-until-served, drain) — the shape every experiment in
:mod:`repro.analysis` uses.  Mid-run channel clears (fault injection) and
loss models with cross-channel mutable state are not supported across
shards; :class:`ShardedSimulator` validates and refuses those up front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.requests import CompletedRequest, RequestDriver
from repro.errors import SimulationError, WorkerCrashed
from repro.obs.recorder import ObsRecorder
from repro.obs.spans import wall
from repro.sim.adversary import scramble_channels, scramble_processes
from repro.sim.channel import BernoulliLoss, LossModel, NoLoss
from repro.sim.partition import Partition, partition_topology
from repro.sim.runtime import BuildFn, CrossShardSend, Simulator
from repro.sim.scheduler import Scheduler
from repro.sim.stats import SimStats
from repro.sim.topology import Topology, topology_from_spec
from repro.sim.trace import EventKind, Trace, TraceEvent
from repro.types import RequestState

__all__ = [
    "ShardedSimulator",
    "ShardedRunResult",
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

    The position is ``(time, key, emit_index)`` where ``key`` is the
    canonical scheduler key of the event being executed when the emission
    happened, *monotonized* within the tick: an event scheduled mid-tick
    with a lower key (e.g. a zero-delay timer) executes after its creator,
    so its emissions inherit the creator's rank.  Sorting all workers'
    events by position reproduces exactly the serial engine's append order.
    """

    __slots__ = ("_scheduler", "keys", "_last_time", "_last_key")

    def __init__(self, scheduler: Scheduler) -> None:
        super().__init__()
        self._scheduler = scheduler
        self.keys: list[tuple[int, int, int]] = []
        self._last_time = -1
        self._last_key = 0

    def emit(self, time: int, kind: str, process: int | None, **data: Any) -> None:
        super().emit(time, kind, process, **data)
        key = self._scheduler.current_key
        if time == self._last_time and key < self._last_key:
            key = self._last_key
        self._last_time = time
        self._last_key = key
        self.keys.append((time, key, len(self.keys)))


def _merge_rank(event: TraceEvent, key: int) -> int:
    # Class-0 (driver) emissions carry no entity in their key; the serial
    # driver walks its processes in ascending pid order, so the process id
    # is the cross-worker rank.  Entity-keyed classes are already total.
    if key == 0 and event.process is not None:
        return event.process
    return -1


@dataclass
class ShardedRunResult:
    """Everything a trial needs back from a sharded run."""

    trace: Trace
    stats: SimStats
    #: Driver-tag request state per pid at the final horizon.
    finals: dict[int, RequestState]
    completions: list[CompletedRequest]
    completed: bool
    #: Tick at which the last shard's driver went idle (None if it never did).
    done_at: int | None
    final_time: int
    partition: Partition
    #: Synchronization window (ticks) the run used.
    window: int = 0
    #: Barriers paid: one per advance round (window-sized steps to the end).
    barriers: int = 0
    #: Driver-side synchronization wall time: total barrier round-trip time
    #: minus each round's slowest worker compute — pipe traffic, outbox
    #: routing and straggler coordination, the cost wider windows amortize.
    sync_wall_s: float = 0.0


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
    """The per-shard result record every multi-process engine ships back.

    When the worker carries an :class:`~repro.obs.recorder.ObsRecorder`,
    the shard's metric snapshot and spans ride along in the same record —
    over the sharded pipe or the cluster's pickled CONTROL frame alike.
    """
    finals = {
        pid: sim.layer(pid, tag).request for pid in shard_pids
    } if tag else {}
    if obs is not None:
        obs.collect_sim(sim)
    return {
        "events": list(trace),
        "keys": list(trace.keys),
        "proc_len": proc_len,
        "chan_len": chan_len,
        "stats": sim.stats,
        "finals": finals,
        "completions": driver.completed() if driver else [],
        "obs": obs.worker_payload() if obs is not None else None,
    }


def _worker_main(
    conn,
    make_sim: Callable[[Sequence[int]], Simulator],
    shard_pids: tuple[int, ...],
    scramble_seed: int | None,
    fill_channels: bool,
    driver_cfg: dict[str, Any] | None,
    obs_shard: int | None = None,
) -> None:
    """One shard worker: build, scramble, then advance window by window."""
    try:
        _worker_loop(conn, make_sim, shard_pids, scramble_seed, fill_channels,
                     driver_cfg, obs_shard)
    except Exception:  # noqa: BLE001 - forwarded to the driving process
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass


def _worker_loop(
    conn,
    make_sim: Callable[[Sequence[int]], Simulator],
    shard_pids: tuple[int, ...],
    scramble_seed: int | None,
    fill_channels: bool,
    driver_cfg: dict[str, Any] | None,
    obs_shard: int | None = None,
) -> None:
    sim = make_sim(shard_pids)
    trace = _KeyedTrace(sim.scheduler)
    sim.trace = trace
    injected, proc_len, chan_len = scramble_shard(
        sim, trace, scramble_seed, fill_channels
    )
    driver: RequestDriver | None = None
    if driver_cfg is not None:
        driver = RequestDriver(sim, pids=shard_pids, **driver_cfg)
    obs: ObsRecorder | None = None
    if obs_shard is not None:
        obs = ObsRecorder(pid=obs_shard + 1, name=f"shard{obs_shard}")
    round_no = 0
    conn.send(("ready", sim.drain_outbox(), injected))
    while True:
        cmd = conn.recv()
        op = cmd[0]
        if op == "adv":
            _, target, inbox = cmd
            t0 = time.perf_counter()
            for src, dst, msg, when, entry_seq in inbox:
                sim.schedule_remote_arrival(src, dst, msg, when, entry_seq)
            if obs is not None:
                w0 = wall()
                sim.scheduler.run_until(target)
                obs.record_round("compute", w0, wall(),
                                 round=round_no, target=target)
            else:
                sim.scheduler.run_until(target)
            round_no += 1
            compute_s = time.perf_counter() - t0
            done_at = driver.done_at if driver is not None else 0
            conn.send(("adv-ok", sim.drain_outbox(), done_at, compute_s))
        elif op == "result":
            tag = driver_cfg["tag"] if driver_cfg else None
            conn.send((
                "result",
                shard_result_payload(
                    sim, trace, proc_len, chan_len, shard_pids, driver, tag,
                    obs=obs,
                ),
            ))
        elif op == "stop":
            conn.close()
            return


class ShardedSimulator:
    """Drive one simulation partitioned across worker processes.

    Constructor arguments mirror :class:`~repro.sim.runtime.Simulator` where
    they are meaningful across shards; ``shards`` fixes the worker count
    (default: one per arbitration-cluster group) and ``window`` the
    synchronization window (default and maximum: the partition's
    cross-shard latency floor, :attr:`lookahead` — the global latency
    lower bound on unweighted topologies).
    """

    def __init__(
        self,
        pids: Sequence[int] | int | None = None,
        build: BuildFn = lambda host: None,
        *,
        topology: Topology | str | None = None,
        seed: int = 0,
        shards: int | None = None,
        window: int | None = None,
        capacity: int = 1,
        latency: tuple[int, int] = (1, 3),
        loss: LossModel | None = None,
        activation_period: int = 2,
        activation_jitter: int = 1,
        trace_network: bool = False,
    ) -> None:
        if isinstance(pids, int):
            pids = list(range(1, pids + 1))
        if topology is None:
            if pids is None:
                raise SimulationError("need a process count, pid list, or topology")
            from repro.sim.topology import Complete

            topology = Complete(pids)
        elif isinstance(topology, str):
            if pids is None:
                raise SimulationError(
                    f"topology spec {topology!r} needs an explicit process count"
                )
            topology = topology_from_spec(topology, len(pids), seed=seed)
        if loss is not None and not isinstance(loss, _SHARDABLE_LOSS):
            raise SimulationError(
                f"loss model {type(loss).__name__} keeps cross-channel state; "
                "the sharded engine supports NoLoss/BernoulliLoss"
            )
        lo, hi = latency
        if not 1 <= lo <= hi:
            raise SimulationError(
                f"latency bounds must satisfy 1 <= lo <= hi, got {latency}"
            )
        # Imported here, not at module scope: cluster worker interpreters
        # import this module for the shard/merge helpers and never fork.
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise SimulationError(
                "the sharded engine needs the 'fork' start method (workers "
                "inherit build closures); this platform does not provide it"
            ) from None
        self.topology = topology
        self.partition = partition_topology(topology, shards)
        #: The engine's conservative lookahead: the minimum latency lower
        #: bound over cross-shard edges (== the global ``lo`` when the
        #: topology is unweighted or the partition has no cut).
        self.lookahead = self.partition.latency_floor(lo)
        if window is None:
            window = self.lookahead
        if not 1 <= window <= self.lookahead:
            detail = (
                "the latency lower bound"
                if self.lookahead == lo
                else f"the cross-shard latency floor; global lower bound {lo}"
            )
            raise SimulationError(
                f"window must be in 1..{self.lookahead} ({detail} — the "
                f"engine's conservative lookahead), got {window}"
            )
        self.window = window
        self.seed = seed
        self._build = build
        self._sim_kwargs = dict(
            seed=seed,
            capacity=capacity,
            latency=latency,
            loss=loss,
            activation_period=activation_period,
            activation_jitter=activation_jitter,
            trace_network=trace_network,
        )

    @property
    def pids(self) -> tuple[int, ...]:
        return self.topology.pids

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    def _make_sim(self, shard_pids: Sequence[int]) -> Simulator:
        return Simulator(
            build=self._build,
            topology=self.topology,
            hosts_for=shard_pids,
            **self._sim_kwargs,
        )

    # -- the driver loop ---------------------------------------------------

    def run_trial(
        self,
        *,
        horizon: int,
        scramble_seed: int | None = None,
        fill_channels: bool = True,
        driver: dict[str, Any] | None = None,
        drain: int = 200,
        obs: ObsRecorder | None = None,
    ) -> ShardedRunResult:
        """Scramble, serve the request driver, drain — across all shards.

        Matches the serial trial shape: run until every shard's driver is
        done (or ``horizon``), then run ``drain`` more ticks so both engines
        stop on the same full tick.  ``drain`` must be >= the window (the
        barrier at which completion is detected can overshoot the completion
        tick by up to one window).
        """
        if drain < self.window:
            raise SimulationError(
                f"drain ({drain}) must be >= window ({self.window})"
            )
        ctx = self._ctx
        shard_of = self.partition.shard_of
        workers: list[Any] = []
        conns = []
        try:
            for shard_index, shard_pids in enumerate(self.partition.shards):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        self._make_sim,
                        shard_pids,
                        scramble_seed,
                        fill_channels,
                        driver,
                        shard_index if obs is not None else None,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                workers.append(proc)
                conns.append(parent_conn)

            inboxes: list[list[CrossShardSend]] = [[] for _ in conns]
            barriers = 0
            phase = "ready"

            def route(outbox: list[CrossShardSend]) -> None:
                for ship in outbox:
                    inboxes[shard_of[ship[1]]].append(ship)

            def crashed(shard: int) -> WorkerCrashed:
                # A dead worker shows as EOF / a broken pipe on its
                # connection; give the OS a moment to report the exit code.
                workers[shard].join(timeout=1)
                return WorkerCrashed(
                    "shard worker died", shard=shard, round=barriers,
                    phase=phase, exit_code=workers[shard].exitcode,
                )

            def send(shard: int, message: tuple) -> None:
                try:
                    conns[shard].send(message)
                except (BrokenPipeError, ConnectionResetError):
                    raise crashed(shard) from None

            def recv(shard: int, expected: str):
                try:
                    message = conns[shard].recv()
                except (EOFError, ConnectionResetError, BrokenPipeError):
                    raise crashed(shard) from None
                if message[0] == "error":
                    raise SimulationError(f"shard worker failed:\n{message[1]}")
                if message[0] != expected:
                    raise SimulationError(
                        f"shard worker protocol error: expected {expected!r}, "
                        f"got {message[0]!r}"
                    )
                return message

            shards = range(len(conns))
            injected = 0
            for shard in shards:
                _, outbox, worker_injected = recv(shard, "ready")
                injected += worker_injected
                route(outbox)

            phase = "rounds"
            completed = False
            done_at: int | None = None
            final_target: int | None = None
            sync_wall = 0.0
            t = -1
            while final_target is None or t < final_target:
                cap = horizon if final_target is None else final_target
                target = min(t + self.window, cap)
                round_start = time.perf_counter()
                round_wall = wall() if obs is not None else 0.0
                for shard in shards:
                    send(shard, ("adv", target, inboxes[shard]))
                inboxes = [[] for _ in conns]
                done_ticks = []
                slowest = 0.0
                for shard in shards:
                    _, outbox, worker_done, compute_s = recv(shard, "adv-ok")
                    route(outbox)
                    done_ticks.append(worker_done)
                    if compute_s > slowest:
                        slowest = compute_s
                barriers += 1
                # Overhead of this barrier: the round trip minus the
                # critical-path (slowest) worker's simulation time.
                round_wait = max(
                    0.0, time.perf_counter() - round_start - slowest
                )
                sync_wall += round_wait
                if obs is not None:
                    obs.record_round("round", round_wall, wall(),
                                     round=barriers - 1, target=target)
                    obs.metrics.observe("sync.round_wait_s", round_wait)
                t = target
                if final_target is None:
                    if driver is not None and all(d is not None for d in done_ticks):
                        done_at = max(done_ticks, default=0)
                        completed = True
                        final_target = done_at + drain
                    elif t >= horizon:
                        final_target = horizon + drain

            # Ask every worker first, then collect in shard order: the
            # workers pickle their traces side by side instead of one
            # after the other.
            phase = "result"
            for shard in shards:
                send(shard, ("result",))
            payloads = [recv(shard, "result")[1] for shard in shards]
            for shard in shards:
                send(shard, ("stop",))
            for proc in workers:
                proc.join(timeout=30)
        finally:
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)

        trace = merge_worker_traces(
            payloads, scramble_seed is not None, fill_channels, injected
        )
        stats = SimStats()
        finals: dict[int, RequestState] = {}
        for payload in payloads:
            stats.merge(payload["stats"])
            finals.update(payload["finals"])
        completions = merge_completions(payloads)
        if obs is not None:
            for payload in payloads:
                if payload.get("obs") is not None:
                    obs.merge_worker(payload["obs"])
            obs.metrics.inc("sync.barriers", barriers)
            obs.metrics.gauge_max("sync.window", self.window)
            obs.metrics.observe("sync.wall_s", sync_wall)
        assert final_target is not None
        return ShardedRunResult(
            trace=trace,
            stats=stats,
            finals=finals,
            completions=completions,
            completed=completed,
            done_at=done_at,
            final_time=final_target,
            partition=self.partition,
            window=self.window,
            barriers=barriers,
            sync_wall_s=sync_wall,
        )


def merge_worker_traces(
    payloads: list[dict[str, Any]],
    scrambled: bool,
    fill_channels: bool,
    injected: int,
) -> Trace:
    """Merge per-shard keyed traces back into the serial append order.

    Shared by every multi-process engine (sharded workers over pipes,
    cluster workers over sockets): each payload is a
    :func:`shard_result_payload` record carrying the shard's events and
    their ``(time, key, emit_index)`` positions.
    """
    trace = Trace()
    if scrambled:
        # The serial scramble emits: per-host scramble emissions in pid
        # order (e.g. a scrambled-in CS occupant's cs-enter), the
        # process-scramble marker, one INJECT per garbage message in
        # (src asc, dst asc) channel order, then the channel summary.
        # Workers suppressed their markers; reconstruct the sequence.
        proc_setup: list[tuple[int, int, TraceEvent]] = []
        chan_setup: list[tuple[int, int, int, TraceEvent]] = []
        for payload in payloads:
            events = payload["events"]
            for index, event in enumerate(events[: payload["proc_len"]]):
                pid = event.process if event.process is not None else -1
                proc_setup.append((pid, index, event))
            for index, event in enumerate(
                events[payload["proc_len"]: payload["chan_len"]]
            ):
                chan_setup.append(
                    (event.get("src", -1), event.get("dst", -1), index, event)
                )
        proc_setup.sort(key=lambda item: item[:2])
        chan_setup.sort(key=lambda item: item[:3])
        trace.extend(event for *_rank, event in proc_setup)
        trace.emit(0, EventKind.SCRAMBLE, None, what="processes")
        if fill_channels:
            trace.extend(event for *_rank, event in chan_setup)
            trace.emit(
                0, EventKind.SCRAMBLE, None, what="channels", injected=injected
            )
    merged: list[tuple[int, int, int, int, int, TraceEvent]] = []
    for worker_index, payload in enumerate(payloads):
        setup_len = payload["chan_len"]
        events = payload["events"][setup_len:]
        keys = payload["keys"][setup_len:]
        for event, (time, key, emit_index) in zip(events, keys):
            merged.append(
                (time, key, _merge_rank(event, key), emit_index, worker_index, event)
            )
    merged.sort(key=lambda item: item[:5])
    trace.extend(item[5] for item in merged)
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
