"""Multi-host runtime: per-shard worker interpreters behind the wire format.

:class:`ClusterSimulator` runs one trial across OS processes (or, with
hand-launched workers, machines): the topology is partitioned into shards
(:mod:`repro.sim.partition` — Weighted-aware boundaries, cross-shard
latency floors), and each shard runs inside its own *worker interpreter*
hosting an :class:`~repro.net.engine.AsyncSimulator` slice
(``hosts_for=shard_pids``).  Intra-shard channels stay in-process loopback
queues; cross-shard sends fall through the base engine's sender-owned
accounting into the cross-shard outbox and travel as ``SHIP`` frames
(:mod:`repro.net.wire`) over real sockets, directly worker-to-worker.

Workers find each other through the rendezvous service of
:mod:`repro.net.registry`: each registers ``(shard_id, host, port)``,
receives the full peer map, and dials its peer shards itself (HELLO
identifies the source shard).  The registry connection doubles as the
coordinator's control channel.

Two synchronization modes:

* ``sync="windowed"`` — the sharded engine's conservative time-window
  protocol over sockets.  The coordinator advances all workers in windows
  of at most :attr:`Partition.latency_floor` ticks; a worker finishes its
  round, ships its outbox, then sends a ``BARRIER(round, ship_count)``
  frame on every peer link.  Per-connection FIFO means a barrier certifies
  every SHIP of that round was already delivered, and the window bound
  means every shipped delivery time lies strictly beyond the next window —
  so a worker that has seen round ``r-1`` barriers from all peers can
  advance round ``r`` with its event heap complete.  The run is therefore
  **bit-identical to the serial engine** (same trace, same canonical
  hash), which the ``cluster-equivalence`` CI gate asserts.
* ``sync="freerun"`` — best-effort: same frames, no barrier waits, and
  arrival times are clamped to the receiver's local future
  (``max(when, now + 1)``).  Cross-shard timing is no longer reproducible,
  so the online spec monitors (:mod:`repro.net.monitors`), replayed over
  the merged trace, carry the verdict — in the spirit of automata-based
  distributed runtime checking.

Fault injection and crash recovery (``docs/robustness.md``):

* A :class:`~repro.chaos.FaultPlan` threads deterministic runtime faults
  through the runtime: worker crashes (``os._exit`` at a named lifecycle
  point, delivered via spawn argv so ``at rendezvous`` works), link cuts
  (sender-side in-order withholding, healed on wall time — pure delay,
  so virtual time is untouched), SHIP drop/duplicate/corrupt at the frame
  boundary, and CONTROL-ack stalls.
* The coordinator *detects* worker death by polling each spawned worker's
  ``Popen`` alongside every control-channel await (and treating control
  EOF the same way), raising :class:`~repro.errors.WorkerCrashed` with
  the shard id, round, exit code and a stderr tail within
  :data:`_CRASH_POLL_S` seconds of the death instead of waiting out the
  worker timeout.
* Under ``sync="windowed"`` with coordinator-spawned workers, a crash is
  *survivable*: every worker keeps a per-peer, per-round log of its
  outbound ships, so the coordinator can respawn the shard, collect the
  survivors' logs, and have the replacement deterministically re-execute
  rounds ``0..r`` from ``(seed, spec)`` plus the logged cross-shard
  inputs.  Survivors dedup the replayed re-ships by ``(src, dst,
  entry_seq)`` (channel admission seqs are monotone per channel, so the
  key is unique); the finished trial's canonical trace hash still equals
  the serial engine's.
* Dropped/corrupted ships are healed without replay: the per-round ship
  count in each BARRIER lets a receiver detect the gap, NAK it over
  CONTROL, and have the sender re-ship that round from its log
  (duplicates are absorbed by the same dedup set).

Trace merging, completion bookkeeping and scramble segment handling are
shared with the fork-based sharded engine
(:func:`repro.sim.sharded.merge_worker_traces` and friends) — one merge
algorithm, two fabrics.

Worker interpreters cannot inherit closures, so trials are described by
picklable *specs*: a protocol spec (``{"kind": "pif", ...}`` —
:func:`repro.core.protocols.build_protocol`) and a driver config whose
payload is a format string (``payload_fmt="msg-{pid}-{k}"``) rather than
a callable.

This module is the coordinator; the worker interpreter it launches lives
in :mod:`repro.net.cluster_worker`, which imports none of this — every
worker pays for its imports before it can REGISTER.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.chaos.plan import FaultPlan
from repro.core.protocols import build_protocol
from repro.core.requests import CompletedRequest
from repro.errors import SimulationError, WorkerCrashed
from repro.net.cluster_worker import parse_hostport, run_cluster_worker
from repro.net.registry import RegistryServer
from repro.obs.recorder import ObsRecorder
from repro.obs.spans import SpanRecorder, wall
from repro.sim.channel import LossModel
from repro.sim.partition import Partition, partition_topology
from repro.sim.sharded import (
    _SHARDABLE_LOSS,
    merge_completions,
    merge_worker_traces,
)
from repro.sim.stats import SimStats
from repro.sim.topology import Topology, topology_from_spec
from repro.sim.trace import Trace
from repro.types import RequestState

__all__ = [
    "ClusterSimulator",
    "ClusterRunResult",
    "SYNC_MODES",
    "FREERUN_WINDOW",
    "run_cluster_worker",
    "parse_hostport",
]

SYNC_MODES = ("windowed", "freerun")

#: Advance-round size in freerun mode (no lookahead bound applies — the
#: round exists only to pace control traffic and completion checks).
FREERUN_WINDOW = 64

#: How often the coordinator polls worker Popen handles while awaiting a
#: control frame — the crash-detection latency bound.
_CRASH_POLL_S = 0.25


def _stderr_tail(path: str | None, limit: int = 4000) -> str:
    """The last ``limit`` bytes of a worker's captured stderr."""
    if path is None:
        return ""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return ""
    return data[-limit:].decode("utf-8", "replace").strip()


def _worker_driver_cfg(driver: dict[str, Any] | None) -> dict[str, Any] | None:
    """Validate a driver config for shipping to worker interpreters."""
    if driver is None:
        return None
    cfg = dict(driver)
    if callable(cfg.get("payload")):
        raise SimulationError(
            "engine='cluster' cannot ship payload callables to worker "
            "interpreters; pass payload_fmt='msg-{pid}-{k}' instead"
        )
    for key, value in cfg.items():
        if callable(value):
            raise SimulationError(
                f"driver option {key!r} is a callable; the cluster engine "
                "needs a picklable driver config"
            )
    return cfg


@dataclass
class ClusterRunResult:
    """Everything a trial needs back from a multi-host run."""

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
    sync: str = "windowed"
    #: Synchronization window (advance-round size in freerun).
    window: int = 0
    #: Barriers paid: one advance round per entry.
    barriers: int = 0
    #: Coordinator-side synchronization wall time: round round-trips minus
    #: each round's slowest worker compute.
    sync_wall_s: float = 0.0
    #: Per-shard simulation wall clock (seconds inside ``drive``), as
    #: reported by each worker interpreter.
    worker_wall_s: dict[int, float] = field(default_factory=dict)
    #: REGISTER/PEERS exchanges the rendezvous cost.
    registry_round_trips: int = 0
    #: Injected-fault and recovery counters (coordinator + all workers):
    #: ``fault.injected.*``, ``worker.crashed``, ``recovery.*``,
    #: ``ship.*``, ``backoff.retries``.
    fault_counts: dict[str, int] = field(default_factory=dict)
    #: Crash recoveries performed (worker respawn + replay).
    recoveries: int = 0
    #: Advance rounds deterministically re-executed by replacements.
    replayed_rounds: int = 0


class ClusterSimulator:
    """Coordinate one trial across per-shard worker interpreters.

    Constructor arguments mirror :class:`~repro.sim.sharded.ShardedSimulator`
    where they are meaningful across hosts; ``protocol`` is a picklable
    protocol spec (see :data:`repro.core.protocols.BUILDERS`) instead of a
    build closure, and ``hosts`` fixes the worker count (default: one per
    arbitration-cluster group).  With ``listen="host:port"`` the
    coordinator binds its registry there and waits for hand-launched
    ``repro cluster-worker`` processes instead of spawning localhost
    workers itself.

    ``fault_plan`` (a :class:`~repro.chaos.FaultPlan` or its DSL text)
    injects deterministic runtime faults; ``recover`` enables the
    respawn-and-replay path for crash faults (``max_respawns`` bounds it).
    """

    def __init__(
        self,
        pids: Sequence[int] | int | None = None,
        protocol: dict[str, Any] | None = None,
        *,
        topology: Topology | str | None = None,
        seed: int = 0,
        hosts: int | None = None,
        window: int | None = None,
        sync: str = "windowed",
        capacity: int = 1,
        latency: tuple[int, int] = (1, 3),
        loss: LossModel | None = None,
        activation_period: int = 2,
        activation_jitter: int = 1,
        listen: str | None = None,
        worker_timeout: float = 120.0,
        fault_plan: FaultPlan | str | None = None,
        recover: bool = True,
        max_respawns: int = 2,
    ) -> None:
        if protocol is None:
            raise SimulationError(
                "the cluster engine needs a picklable protocol spec "
                "(e.g. {'kind': 'pif'}); build closures cannot cross "
                "interpreter boundaries"
            )
        build_protocol(protocol)  # validate early, coordinator-side
        if sync not in SYNC_MODES:
            raise SimulationError(
                f"unknown sync mode {sync!r}; expected one of {SYNC_MODES}"
            )
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
                "the cluster engine supports NoLoss/BernoulliLoss"
            )
        lo, hi = latency
        if not 1 <= lo <= hi:
            raise SimulationError(
                f"latency bounds must satisfy 1 <= lo <= hi, got {latency}"
            )
        self.topology = topology
        self.protocol = dict(protocol)
        self.partition = partition_topology(topology, hosts)
        #: Conservative lookahead, as on the sharded engine: the minimum
        #: latency lower bound over cross-shard edges.
        self.lookahead = self.partition.latency_floor(lo)
        self.sync = sync
        if sync == "windowed":
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
        else:
            if window is None:
                window = FREERUN_WINDOW
            if window < 1:
                raise SimulationError(f"window must be >= 1, got {window}")
        self.window = window
        self.seed = seed
        self.listen = listen
        self.worker_timeout = worker_timeout
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        if fault_plan is not None:
            fault_plan.validate_for_cluster(
                self.partition.n_shards,
                self.topology.pids,
                sync=sync,
                spawned=listen is None,
            )
        self._plan = fault_plan
        self.recover = recover
        self.max_respawns = max_respawns
        self._sim_kwargs = dict(
            seed=seed,
            capacity=capacity,
            latency=latency,
            loss=loss,
            activation_period=activation_period,
            activation_jitter=activation_jitter,
        )

    @property
    def pids(self) -> tuple[int, ...]:
        return self.topology.pids

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    # -- the coordinator loop ---------------------------------------------

    def run_trial(
        self,
        *,
        horizon: int,
        scramble_seed: int | None = None,
        fill_channels: bool = True,
        driver: dict[str, Any] | None = None,
        drain: int = 200,
        obs: ObsRecorder | None = None,
    ) -> ClusterRunResult:
        """Rendezvous the workers, then scramble/serve/drain across shards.

        Same trial shape as every other engine; ``drain`` must be >= the
        window (completion is detected at a round boundary, which can
        overshoot the completion tick by up to one window).  With ``obs``,
        workers record their own metrics and spans and ship them back in
        the RESULT control frame, where they merge into the coordinator's
        recorder — one timeline across every interpreter in the trial,
        with fault injections and recoveries on a dedicated chaos lane.
        """
        if drain < self.window:
            raise SimulationError(
                f"drain ({drain}) must be >= window ({self.window})"
            )
        driver_cfg = _worker_driver_cfg(driver)
        return asyncio.run(
            self._run(
                horizon, scramble_seed, fill_channels, driver_cfg, drain, obs
            )
        )

    def _worker_env(self) -> dict[str, str]:
        """Spawn environment: ``PYTHONPATH`` is threaded through explicitly
        — the parent may be running from a source tree (pytest sets
        ``sys.path``, not the environment)."""
        import repro

        env = os.environ.copy()
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        return env

    def _spawn_worker(
        self, registry_address: str, shard: int, *, chaos: bool = True
    ) -> tuple[subprocess.Popen, str]:
        """Launch one localhost worker interpreter for ``shard``.

        Workers are fresh interpreters (``python -m repro cluster-worker``),
        not forks — the same launch command works on a remote machine, which
        is the point.  Crash faults ride the argv (``--chaos``): they must
        exist before the control channel does.  stderr goes to a tempfile
        so :class:`WorkerCrashed` can carry its tail.  ``chaos=False``
        spawns a *replacement*, which must not re-inject its predecessor's
        crash.
        """
        argv = [
            sys.executable,
            "-m",
            "repro",
            "cluster-worker",
            "--registry",
            registry_address,
            "--shard",
            str(shard),
        ]
        token = self._plan.crash_token(shard) if (chaos and self._plan) else None
        if token is not None:
            argv += ["--chaos", token]
        stderr_file = tempfile.NamedTemporaryFile(
            prefix=f"repro-worker-{shard}-", suffix=".stderr", delete=False
        )
        try:
            popen = subprocess.Popen(
                argv, env=self._worker_env(), stderr=stderr_file
            )
        finally:
            stderr_file.close()
        return popen, stderr_file.name

    async def _run(
        self,
        horizon: int,
        scramble_seed: int | None,
        fill_channels: bool,
        driver_cfg: dict[str, Any] | None,
        drain: int,
        obs: ObsRecorder | None,
    ) -> ClusterRunResult:
        plan = self._plan
        if self.listen is not None:
            reg_host, reg_port = parse_hostport(self.listen)
            registry = RegistryServer(self.n_shards, host=reg_host, port=reg_port)
        else:
            registry = RegistryServer(self.n_shards)
        procs: dict[int, subprocess.Popen] = {}
        stderr_paths: dict[int, str] = {}
        handles: dict[int, Any] = {}
        coord_counts: dict[str, int] = {}
        chaos_spans = (
            SpanRecorder(pid=self.n_shards + 1) if obs is not None else None
        )
        recovering: set[int] = set()
        respawns = 0
        replayed_rounds_total = 0
        injected_by_shard: dict[int, int] = {}
        targets: list[int] = []
        spec: dict[str, Any] = {}

        def count(name: str, n: int = 1) -> None:
            coord_counts[name] = coord_counts.get(name, 0) + n

        def spawn(shard: int, *, chaos: bool = True) -> None:
            popen, path = self._spawn_worker(registry.address, shard, chaos=chaos)
            procs[shard] = popen
            stderr_paths[shard] = path

        def first_dead() -> int | None:
            for shard in sorted(procs):
                if procs[shard].poll() is not None:
                    return shard
            return None

        def crash_error(
            shard: int, phase: str, round_no: int | None = None
        ) -> WorkerCrashed:
            popen = procs.get(shard)
            exit_code = popen.poll() if popen is not None else None
            tail = _stderr_tail(stderr_paths.get(shard))
            count("worker.crashed")
            if plan is not None and plan.crash_token(shard) is not None:
                count("fault.injected.crash")
            return WorkerCrashed(
                "cluster worker died",
                shard=shard,
                round=round_no,
                phase=phase,
                exit_code=exit_code,
                stderr_tail=tail or None,
            )

        async def relay_nak(nak_from: int, peer: int, round_no: int) -> None:
            """A receiver's ship-count mismatch: ask the sender to re-ship
            the round from its log.  Suppressed while the sender is being
            recovered — its replacement's live re-ships heal the gap."""
            count("ship.nak_relayed")
            if peer in recovering or peer not in handles:
                return
            with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
                await handles[peer].send(("resend", nak_from, round_no))

        async def recv(
            handle, *expected: str, phase: str, round_no: int | None = None
        ):
            """Await one control frame (one of the ``expected`` ops),
            polling the worker's Popen so its death surfaces as
            :class:`WorkerCrashed` within :data:`_CRASH_POLL_S` instead of
            the worker timeout.  NAK frames may arrive on any await; they
            are relayed inline."""
            shard = handle.shard
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.worker_timeout
            task = asyncio.ensure_future(handle.recv())
            try:
                while True:
                    done, _ = await asyncio.wait({task}, timeout=_CRASH_POLL_S)
                    if done:
                        try:
                            message = task.result()
                        except (
                            asyncio.IncompleteReadError,
                            ConnectionResetError,
                        ):
                            raise crash_error(shard, phase, round_no) from None
                        if message[0] == "nak":
                            _, nak_from, peer, nak_round = message
                            await relay_nak(nak_from, peer, nak_round)
                            task = asyncio.ensure_future(handle.recv())
                            continue
                        if message[0] == "error":
                            raise SimulationError(
                                f"cluster worker shard {shard} failed:\n"
                                f"{message[1]}"
                            )
                        if message[0] not in expected:
                            raise SimulationError(
                                "cluster worker protocol error: expected "
                                f"{expected[0]!r}, got {message[0]!r}"
                            )
                        return message
                    popen = procs.get(shard)
                    if popen is not None and popen.poll() is not None:
                        raise crash_error(shard, phase, round_no)
                    if loop.time() > deadline:
                        raise SimulationError(
                            f"cluster worker shard {shard} sent no "
                            f"{expected[0]!r} within {self.worker_timeout:.0f}s"
                        )
            finally:
                if not task.done():
                    task.cancel()

        async def guarded(awaitable, *, phase: str):
            """Run a registry await with the same Popen crash polling."""
            task = asyncio.ensure_future(awaitable)
            try:
                while True:
                    done, _ = await asyncio.wait({task}, timeout=_CRASH_POLL_S)
                    if done:
                        return task.result()
                    dead = first_dead()
                    if dead is not None:
                        raise crash_error(dead, phase)
            finally:
                if not task.done():
                    task.cancel()

        async def recover(crashed_shard: int, crash: WorkerCrashed) -> int | None:
            """Respawn a crashed shard and replay it back to the barrier.

            Collects the survivors' logged ships *for* the dead shard,
            respawns it without its crash fault, rewires the survivors to
            the replacement's fresh peer server, and sends a replay spec:
            the replacement rebuilds its engine from (seed, spec), seeds
            its dedup set and event heap with the logged inputs, and
            re-executes the same advance targets the first incarnation
            saw — deterministically, so its re-ships are byte-identical
            and survivors absorb them as duplicates (except the crashed
            round's, which are new).  Returns the replacement's driver
            done-tick through the replayed rounds.
            """
            nonlocal respawns, replayed_rounds_total
            recoverable = (
                self.recover
                and self.sync == "windowed"
                and self.listen is None
                and respawns < self.max_respawns
                and not recovering
            )
            if not recoverable:
                raise crash
            recovering.add(crashed_shard)
            t0 = wall() if chaos_spans is not None else 0.0
            respawns += 1
            old = handles.pop(crashed_shard, None)
            if old is not None:
                old.close()
            dead_proc = procs.pop(crashed_shard, None)
            if dead_proc is not None:
                with contextlib.suppress(Exception):
                    dead_proc.wait(timeout=5)
            replay_ships: list[tuple[int, tuple]] = []
            for shard in sorted(handles):
                handle = handles[shard]
                await handle.send(("ship-log", crashed_shard))
                _, entries = await recv(handle, "ship-log", phase="recovery")
                replay_ships.extend(entries)
            registry.expect_rejoin(crashed_shard)
            spawn(crashed_shard, chaos=False)
            new_handle = await guarded(
                registry.rejoin(self.worker_timeout), phase="respawn"
            )
            handles[crashed_shard] = new_handle
            for shard in sorted(handles):
                if shard == crashed_shard:
                    continue
                if crashed_shard not in self.partition.peer_shards(shard):
                    # No topology edge between these shards (e.g. opposite
                    # sides of a wan ring): the survivor never ships to the
                    # replacement, and dialing it anyway would plant a
                    # barrier-round entry the replacement waits on forever.
                    continue
                handle = handles[shard]
                await handle.send(
                    ("peer-update", crashed_shard, new_handle.host, new_handle.port)
                )
                await recv(handle, "peer-ok", phase="recovery")
            await new_handle.send((
                "spec",
                {
                    **spec,
                    "faults": None,
                    "replay": {"targets": list(targets), "ships": replay_ships},
                },
            ))
            _, injected, done_tick = await recv(
                new_handle, "ready", phase="recovery"
            )
            recovering.discard(crashed_shard)
            replayed_rounds_total += len(targets)
            count("recovery.respawns")
            if targets:
                count("recovery.replayed_rounds", len(targets))
            injected_by_shard[crashed_shard] = injected
            if chaos_spans is not None:
                chaos_spans.record(
                    "recovery", "chaos", t0, wall(),
                    args={
                        "shard": crashed_shard,
                        "replayed_rounds": len(targets),
                        "round": crash.round,
                        "phase": crash.phase,
                    },
                )
            return done_tick

        try:
            await registry.start()
            if self.listen is None:
                for shard in range(self.n_shards):
                    spawn(shard)
            rendezvous_wall = wall() if obs is not None else 0.0
            handle_list = await guarded(
                registry.rendezvous(self.worker_timeout), phase="rendezvous"
            )
            handles = {handle.shard: handle for handle in handle_list}
            if obs is not None:
                obs.spans.record(
                    "rendezvous", "phase", rendezvous_wall, wall(),
                    args={"workers": self.n_shards},
                )
                obs.metrics.observe(
                    "registry.rendezvous_wall_s", registry.rendezvous_wall_s
                )
            spec = {
                "topology": self.topology,
                "shards": self.partition.shards,
                "protocol": self.protocol,
                "sync": self.sync,
                "scramble_seed": scramble_seed,
                "fill_channels": fill_channels,
                "driver": driver_cfg,
                "timeout": self.worker_timeout,
                "obs": obs is not None,
                **self._sim_kwargs,
            }
            shard_of = self.partition.shard_of
            for shard in sorted(handles):
                worker_faults = (
                    plan.worker_slice(shard, shard_of) if plan is not None else None
                )
                await handles[shard].send(
                    ("spec", {**spec, "faults": worker_faults})
                )

            crash: WorkerCrashed | None = None
            for shard in sorted(handles):
                try:
                    message = await recv(
                        handles[shard], "ready", phase="startup"
                    )
                except WorkerCrashed as exc:
                    if crash is not None:
                        raise
                    crash = exc
                    continue
                injected_by_shard[shard] = message[1]
            if crash is not None:
                await recover(crash.shard, crash)
            injected = sum(injected_by_shard.values())

            completed = False
            done_at: int | None = None
            final_target: int | None = None
            barriers = 0
            sync_wall = 0.0
            worker_wall: dict[int, float] = {shard: 0.0 for shard in handles}
            t = -1
            while final_target is None or t < final_target:
                cap = horizon if final_target is None else final_target
                target = min(t + self.window, cap)
                targets.append(target)
                round_no = len(targets)
                round_wall = wall() if obs is not None else 0.0
                round_start = time.perf_counter()
                send_dead: list[int] = []
                for shard in sorted(handles):
                    try:
                        await handles[shard].send(("adv", target))
                    except (ConnectionResetError, BrokenPipeError, OSError):
                        send_dead.append(shard)
                done_ticks: dict[int, int | None] = {}
                slowest = 0.0
                crash = None
                blocked: list[int] = []

                def note_ack(shard: int, ack: tuple) -> None:
                    nonlocal slowest
                    _, done_ticks[shard], compute_s = ack
                    worker_wall[shard] = worker_wall.get(shard, 0.0) + compute_s
                    slowest = max(slowest, compute_s)

                for shard in sorted(handles):
                    if shard in send_dead:
                        continue
                    try:
                        message = await recv(
                            handles[shard], "adv-ok", "adv-blocked",
                            phase="barrier", round_no=round_no,
                        )
                    except WorkerCrashed as exc:
                        if crash is not None:
                            raise
                        crash = exc
                        continue
                    if message[0] == "adv-blocked":
                        blocked.append(shard)
                        continue
                    note_ack(shard, message)
                for shard in send_dead:
                    exc = crash_error(shard, "barrier", round_no)
                    if crash is not None:
                        raise exc
                    crash = exc
                if crash is not None:
                    # Every survivor has acked this round or handed it
                    # back.  The dead shard acked all earlier rounds, and
                    # acks follow ship drains, so a survivor held every
                    # barrier it needed — unless a ship of the dead
                    # shard's was lost and it died owing the resend: that
                    # survivor reports adv-blocked instead of waiting for
                    # a barrier only the replacement's re-ships complete.
                    # Safe point: recover now.
                    done_ticks[crash.shard] = await recover(crash.shard, crash)
                elif blocked:
                    raise SimulationError(
                        f"cluster worker shard(s) {blocked} lost a peer "
                        f"link in round {round_no}, but no worker died"
                    )
                for shard in blocked:
                    await handles[shard].send(("adv", target))
                    note_ack(shard, await recv(
                        handles[shard], "adv-ok",
                        phase="barrier", round_no=round_no,
                    ))
                barriers += 1
                round_wait = max(
                    0.0, time.perf_counter() - round_start - slowest
                )
                sync_wall += round_wait
                if obs is not None:
                    obs.record_round(
                        "round", round_wall, wall(),
                        round=barriers - 1, target=target,
                    )
                    obs.metrics.observe("sync.round_wait_s", round_wait)
                t = target
                if final_target is None:
                    if driver_cfg is not None and len(
                        done_ticks
                    ) == self.n_shards and all(
                        d is not None for d in done_ticks.values()
                    ):
                        done_at = max(done_ticks.values(), default=0)
                        completed = True
                        final_target = done_at + drain
                    elif t >= horizon:
                        final_target = horizon + drain

            payloads = []
            for shard in sorted(handles):
                handle = handles[shard]
                await handle.send(("result",))
                _, payload = await recv(handle, "result", phase="result")
                payloads.append(payload)
            for handle in handles.values():
                with contextlib.suppress(
                    ConnectionResetError, BrokenPipeError, OSError
                ):
                    await handle.send(("stop",))
            # Reap in a thread: an untimed wait blocks in waitpid, whereas
            # Popen.wait(timeout=) busy-polls with doubling sleeps and
            # would hold the event loop for a quantised 32 or 64 ms.
            loop = asyncio.get_running_loop()
            for proc in procs.values():
                try:
                    await asyncio.wait_for(
                        loop.run_in_executor(None, proc.wait), 30
                    )
                except asyncio.TimeoutError:
                    proc.terminate()
        finally:
            await registry.close()
            for proc in procs.values():
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs.values():
                if proc.poll() is None:
                    try:
                        proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        proc.kill()
            for path in stderr_paths.values():
                with contextlib.suppress(OSError):
                    os.unlink(path)

        trace = merge_worker_traces(
            payloads, scramble_seed is not None, fill_channels, injected
        )
        stats = SimStats()
        finals: dict[int, RequestState] = {}
        for payload in payloads:
            stats.merge(payload["stats"])
            finals.update(payload["finals"])
        fault_counts = dict(coord_counts)
        for payload in payloads:
            for name, n in (payload.get("fault_counts") or {}).items():
                fault_counts[name] = fault_counts.get(name, 0) + n
        if obs is not None:
            for payload in payloads:
                if payload.get("obs") is not None:
                    obs.merge_worker(payload["obs"])
            obs.metrics.inc("sync.barriers", barriers)
            obs.metrics.gauge_max("sync.window", self.window)
            obs.metrics.observe("sync.wall_s", sync_wall)
            obs.metrics.inc("registry.round_trips", registry.round_trips)
            for name, n in coord_counts.items():
                obs.metrics.inc(name, n)
            if chaos_spans is not None:
                chaos_payload = chaos_spans.payload()
                if chaos_payload:
                    obs.spans.extend(chaos_payload)
                    obs.process_names[self.n_shards + 1] = "chaos"
        assert final_target is not None
        return ClusterRunResult(
            trace=trace,
            stats=stats,
            finals=finals,
            completions=merge_completions(payloads),
            completed=completed,
            done_at=done_at,
            final_time=final_target,
            partition=self.partition,
            sync=self.sync,
            window=self.window,
            barriers=barriers,
            sync_wall_s=sync_wall,
            worker_wall_s=worker_wall,
            registry_round_trips=registry.round_trips,
            fault_counts=fault_counts,
            recoveries=respawns,
            replayed_rounds=replayed_rounds_total,
        )
