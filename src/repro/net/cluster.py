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

Rounds are *granted*, not driven (:mod:`repro.net.grant`).  Every worker
runs one fixed round grid on its own — ``t + window``, capped at the
horizon, then at the final target — and the coordinator only bounds how
far: a CONTROL ``("grant", limit, final)`` lets a worker run every target
``<= limit``.  Workers report ``(round, t, done_at, compute_s)`` sparsely
(when their driver first goes idle, when they reach ``limit``, and every
``drain // (4 * window)`` rounds); a shard still busy at tick ``t`` proves
the trial completes after ``t``, so the coordinator extends ``limit`` to
the slowest busy report plus ``drain``, and sends the final grant
``max(done_at) + drain`` once every shard has reported done.  The credit
is the engine's version of the paper's bounded channel: a bound on what
may be in flight, instead of a round-trip per step.  The control ops are
``spec/ready/grant/report/resend/ship-log/peer-update/result/stop``
(plus a worker's ``nak``, ``peer-ok`` and ``error``).

Two synchronization modes share that loop:

* ``sync="windowed"`` — the sharded engine's conservative time-window
  protocol over sockets, peer to peer.  Windows are at most
  :attr:`Partition.latency_floor` ticks; a worker finishes its round,
  ships its outbox, then sends a ``BARRIER(round, ship_count)`` frame on
  every peer link (one write per link per round).  Per-connection FIFO
  means a barrier certifies every SHIP of that round was already
  delivered, and the window bound means every shipped delivery time lies
  strictly beyond the next window — so a worker that has seen round
  ``r-1`` barriers from all peers can run round ``r`` with its event heap
  complete, without asking anyone.  The run is therefore **bit-identical
  to the serial engine** (same trace, same canonical hash), which the
  ``cluster-equivalence`` CI gate asserts.
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
  boundary, and post-round stalls.
* The coordinator *detects* worker death by polling each spawned worker's
  ``Popen`` alongside every control-channel await (and treating control
  EOF the same way), raising :class:`~repro.errors.WorkerCrashed` with
  the shard id, round, exit code and a stderr tail within
  :data:`_CRASH_POLL_S` seconds of the death instead of waiting out the
  worker timeout.
* Under ``sync="windowed"`` with coordinator-spawned workers, a crash is
  *survivable*: every worker keeps a per-peer, per-round log of its
  outbound ships and serves its control channel beside the round loop.
  Once every survivor adjacent to the dead shard is parked (blocked on
  the lost peer, out of credit, or finished) the coordinator collects
  their logs, respawns the shard and rewires the survivors to it; the
  replacement runs the *ordinary* round loop from round 1 with the logged
  ships pre-injected, the survivors' ``BARRIER_SKIP_COUNT``
  re-announcements standing in for the barriers that predate it.
  Survivors dedup its re-ships by ``(src, dst, entry_seq)`` (channel
  admission seqs are monotone per channel, so the key is unique); the
  finished trial's canonical trace hash still equals the serial engine's.
* Dropped/corrupted ships are healed without replay: the per-round ship
  count in each BARRIER lets a receiver detect the gap, NAK it over
  CONTROL, and have the sender re-ship that round from its log
  (duplicates are absorbed by the same dedup set) — at once, even while
  the sender's round loop waits on a barrier.

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
from repro.net.grant import Grant, GrantLedger
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

#: Round size in freerun mode (no lookahead bound applies — the round
#: exists only to pace shipping and progress reports).
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
    #: Synchronization window (round size in freerun).
    window: int = 0
    #: Barriers paid: rounds every worker ran.
    barriers: int = 0
    #: Synchronization wall time: the rounds phase minus the slowest
    #: worker's compute.
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
    #: Rounds deterministically re-executed by replacements.
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
        trial = _Coordinator(self, horizon, drain, obs)
        spec = {
            "topology": self.topology,
            "shards": self.partition.shards,
            "protocol": self.protocol,
            "sync": self.sync,
            "window": self.window,
            "horizon": horizon,
            "drain": drain,
            "scramble_seed": scramble_seed,
            "fill_channels": fill_channels,
            "driver": driver_cfg,
            "timeout": self.worker_timeout,
            "obs": obs is not None,
            **self._sim_kwargs,
        }
        try:
            payloads = await trial.run(spec)
        finally:
            await trial.close()
        return trial.result(payloads, scramble_seed is not None, fill_channels)


class _Coordinator:
    """One trial's coordinator: the worker processes, their control
    channels, the grant ledger and crash recovery.

    Every worker's CONTROL frames funnel into one inbox (a reader task
    per handle), so the coordinator serves whoever speaks next instead of
    polling the workers in shard order; :meth:`_next` is the one await
    every phase sits in, and the one place worker death is noticed.
    """

    def __init__(
        self,
        sim: ClusterSimulator,
        horizon: int,
        drain: int,
        obs: ObsRecorder | None,
    ) -> None:
        self.sim = sim
        self.obs = obs
        n = sim.n_shards
        if sim.listen is not None:
            host, port = parse_hostport(sim.listen)
            self.registry = RegistryServer(n, host=host, port=port)
        else:
            self.registry = RegistryServer(n)
        self.procs: dict[int, subprocess.Popen] = {}
        self.stderr_paths: dict[int, str] = {}
        self.handles: dict[int, Any] = {}
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.pumps: list[asyncio.Task] = []
        #: Shards noticed dead and not (yet) replaced.
        self.dead: set[int] = set()
        self.counts: dict[str, int] = {}
        self.chaos_spans = SpanRecorder(pid=n + 1) if obs is not None else None
        self.respawns = 0
        self.replayed_rounds = 0
        self.injected: dict[int, int] = {}
        self.spec: dict[str, Any] = {}
        self.ledger = GrantLedger(n, sim.window, drain, horizon)
        #: Per shard: the last grant sent, the park reason of its last
        #: report (None = running), the round it reported, its compute.
        self.sent: dict[int, Grant] = {}
        self.park: dict[int, tuple | None] = {}
        self.rounds: dict[int, int] = {}
        self.worker_wall: dict[int, float] = {}
        self.rounds_wall = 0.0

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _phase(self, name: str, **args):
        """A coordinator-lane phase span; the phases do not overlap."""
        if self.obs is None:
            return contextlib.nullcontext()
        return self.obs.phase(name, **args)

    # -- workers and their control channels -------------------------------

    def _spawn(self, shard: int, *, chaos: bool = True) -> None:
        popen, path = self.sim._spawn_worker(
            self.registry.address, shard, chaos=chaos
        )
        self.procs[shard] = popen
        self.stderr_paths[shard] = path

    def _adopt(self, handle) -> None:
        """Start reading a registered worker's control channel."""
        self.handles[handle.shard] = handle
        self.sent[handle.shard] = Grant(-1, None)
        self.park[handle.shard] = None
        self.pumps.append(asyncio.ensure_future(self._pump(handle)))

    async def _pump(self, handle) -> None:
        try:
            while True:
                self.inbox.put_nowait((handle, await handle.recv()))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            self.inbox.put_nowait((handle, ("eof",)))
        except SimulationError as exc:  # a malformed control frame
            self.inbox.put_nowait((handle, ("error", f"control channel: {exc}")))

    async def _send(self, shard: int, message: tuple) -> None:
        """Best-effort send: a dead worker surfaces through :meth:`_next`
        (control EOF, Popen poll), not through the write that missed it."""
        with contextlib.suppress(ConnectionResetError, BrokenPipeError, OSError):
            await self.handles[shard].send(message)

    def _first_dead(self) -> int | None:
        for shard in sorted(self.procs):
            if shard not in self.dead and self.procs[shard].poll() is not None:
                return shard
        return None

    def _died(
        self, shard: int, phase: str, round_no: int | None = None
    ) -> WorkerCrashed:
        """Note a worker's death (once) and describe it."""
        if shard not in self.dead:
            self.dead.add(shard)
            self._count("worker.crashed")
            plan = self.sim._plan
            if plan is not None and plan.crash_token(shard) is not None:
                self._count("fault.injected.crash")
        popen = self.procs.get(shard)
        return WorkerCrashed(
            "cluster worker died",
            shard=shard,
            round=round_no,
            phase=phase,
            exit_code=popen.poll() if popen is not None else None,
            stderr_tail=_stderr_tail(self.stderr_paths.get(shard)) or None,
        )

    async def _next(self, phase: str) -> tuple[int, tuple]:
        """The next control message from any live worker.

        Polls the spawned workers' ``Popen`` handles while it waits, so a
        death surfaces as :class:`WorkerCrashed` within
        :data:`_CRASH_POLL_S` (control EOF surfaces it at once) instead
        of the worker timeout.  NAKs are relayed inline; progress reports
        are folded into the ledger.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.sim.worker_timeout
        while True:
            try:
                handle, message = await asyncio.wait_for(
                    self.inbox.get(), timeout=_CRASH_POLL_S
                )
            except asyncio.TimeoutError:
                dead = self._first_dead()
                if dead is not None:
                    raise self._died(dead, phase) from None
                if loop.time() > deadline:
                    raise SimulationError(
                        f"no cluster worker spoke during {phase} within "
                        f"{self.sim.worker_timeout:.0f}s"
                    ) from None
                continue
            shard = handle.shard
            if self.handles.get(shard) is not handle:
                continue  # a replaced incarnation's straggler
            op = message[0]
            if op == "eof":
                if shard in self.dead:
                    continue
                raise self._died(shard, phase)
            if op == "error":
                raise SimulationError(
                    f"cluster worker shard {shard} failed:\n{message[1]}"
                )
            if op == "nak":
                # A receiver's ship-count mismatch: ask the sender to
                # re-ship the round from its log — unless the sender is
                # dead, in which case its replacement's live re-ships
                # heal the gap.
                _, nak_from, peer, nak_round = message
                self._count("ship.nak_relayed")
                if peer not in self.dead and peer in self.handles:
                    await self._send(peer, ("resend", nak_from, nak_round))
                continue
            if op == "report":
                _, self.rounds[shard], t, done_at, compute_s, park = message
                self.ledger.report(shard, t, done_at)
                self.worker_wall[shard] = (
                    self.worker_wall.get(shard, 0.0) + compute_s
                )
                self.park[shard] = park
            return shard, message

    async def _expect(self, shard: int, op: str, phase: str) -> tuple:
        """Await ``op`` from ``shard``; other workers' reports pass."""
        while True:
            sender, message = await self._next(phase)
            if message[0] == "report":
                continue
            if sender != shard or message[0] != op:
                raise SimulationError(
                    f"cluster worker protocol error: expected {op!r} from "
                    f"shard {shard}, got {message[0]!r} from shard {sender}"
                )
            return message

    async def _guarded(self, awaitable, *, phase: str):
        """Run a registry await with the same Popen crash polling."""
        task = asyncio.ensure_future(awaitable)
        try:
            while True:
                done, _ = await asyncio.wait({task}, timeout=_CRASH_POLL_S)
                if done:
                    return task.result()
                dead = self._first_dead()
                if dead is not None:
                    raise self._died(dead, phase)
        finally:
            if not task.done():
                task.cancel()

    # -- the trial --------------------------------------------------------

    async def run(self, spec: dict[str, Any]) -> list[dict[str, Any]]:
        sim, obs = self.sim, self.obs
        self.spec = spec
        await self.registry.start()
        if sim.listen is None:
            with self._phase("spawn", workers=sim.n_shards):
                for shard in range(sim.n_shards):
                    self._spawn(shard)
        with self._phase("rendezvous", workers=sim.n_shards):
            for handle in await self._guarded(
                self.registry.rendezvous(sim.worker_timeout), phase="rendezvous"
            ):
                self._adopt(handle)
        if obs is not None:
            obs.metrics.observe(
                "registry.rendezvous_wall_s", self.registry.rendezvous_wall_s
            )
        with self._phase("startup"):
            await self._startup()
        started = time.perf_counter()
        with self._phase("rounds"):
            await self._granted_rounds()
        self.rounds_wall = time.perf_counter() - started
        with self._phase("result_ship"):
            for shard in self.handles:
                await self._send(shard, ("result",))
            payloads: dict[int, dict[str, Any]] = {}
            while len(payloads) < sim.n_shards:
                shard, message = await self._next("result")
                if message[0] == "result":
                    payloads[shard] = message[1]
            for shard in self.handles:
                await self._send(shard, ("stop",))
        with self._phase("reap"):
            # Reap in a thread: an untimed wait blocks in waitpid, whereas
            # Popen.wait(timeout=) busy-polls with doubling sleeps and
            # would hold the event loop for a quantised 32 or 64 ms.
            loop = asyncio.get_running_loop()
            for proc in self.procs.values():
                try:
                    await asyncio.wait_for(
                        loop.run_in_executor(None, proc.wait), 30
                    )
                except asyncio.TimeoutError:
                    proc.terminate()
        return [payloads[shard] for shard in sorted(payloads)]

    async def _startup(self) -> None:
        """Ship the spec, await every worker's ``ready``; one crash on
        the way is recovered (nothing has been granted yet)."""
        plan = self.sim._plan
        shard_of = self.sim.partition.shard_of
        for shard in sorted(self.handles):
            faults = plan.worker_slice(shard, shard_of) if plan else None
            await self._send(shard, ("spec", {**self.spec, "faults": faults}))
        crash: WorkerCrashed | None = None
        while set(self.handles) - set(self.injected) - self.dead:
            try:
                shard, message = await self._next("startup")
            except WorkerCrashed as exc:
                if crash is not None:
                    raise
                crash = exc
                continue
            if message[0] == "ready":
                self.injected[shard] = message[1]
        if crash is not None:
            await self._recover(crash)

    async def _granted_rounds(self) -> None:
        """Grant credit as reports arrive until every worker has
        finished; a crash on the way is recovered in place."""
        shards = range(self.sim.n_shards)
        while True:
            grant = self.ledger.grant()
            for shard in shards:
                if self.sent[shard] != grant:
                    self.sent[shard] = grant
                    await self._send(shard, ("grant", *grant))
            if all(self._parked(shard) == "final" for shard in shards):
                return
            try:
                shard, message = await self._next("barrier")
            except WorkerCrashed as crash:
                await self._recover(crash, in_rounds=True)
                continue
            if message[0] != "report":
                raise SimulationError(
                    f"cluster worker protocol error: shard {shard} sent "
                    f"{message[0]!r} during the granted rounds"
                )

    def _parked(self, shard: int) -> str | None:
        """Why ``shard`` cannot move until the coordinator acts, or None
        while it may be running: a worker that reported itself out of
        credit is parked only if no larger grant is on its way."""
        park = self.park[shard]
        if park is None or (park[0] == "limit" and park[1] != self.sent[shard].limit):
            return None
        return park[0]

    # -- crash recovery ---------------------------------------------------

    async def _recover(self, crash: WorkerCrashed, in_rounds: bool = False) -> None:
        """Respawn a crashed shard and let it catch up on its own.

        Waits until every survivor adjacent to the dead shard is parked
        (blocked on the lost peer, out of credit, or finished — no grant
        is issued meanwhile, so each gets there), which fixes what their
        ship logs hold; collects those logs, respawns the shard without
        its crash fault, rewires the adjacent survivors to the
        replacement's fresh peer server, and hands the replacement the
        spec plus the logged ships.  The replacement runs the ordinary
        round loop from round 1 under the current grant: the survivors'
        re-announced rounds let it through without waiting, determinism
        makes its re-ships byte-identical to the lost ones, and survivors
        absorb them as duplicates — except the rounds they are blocked
        on, which are new and exactly what they wait for.
        """
        sim = self.sim
        dead = crash.shard
        adjacent = [
            shard for shard in sorted(self.handles)
            if shard != dead and dead in sim.partition.peer_shards(shard)
        ]
        if in_rounds:
            while not all(self._parked(shard) for shard in adjacent):
                await self._next("recovery")
            # The dead worker died in the first round whose barrier it
            # never announced; failing that, the last one it reported.
            awaited = [
                self.park[shard][2] for shard in adjacent
                if self.park[shard][:2] == ("blocked", dead)
            ]
            crash = self._died(
                dead, crash.phase,
                min(awaited) if awaited else self.rounds.get(dead, 0),
            )
        if not (
            sim.recover
            and sim.sync == "windowed"
            and sim.listen is None
            and self.respawns < sim.max_respawns
        ):
            raise crash
        t0 = wall()
        self.respawns += 1
        self.handles.pop(dead).close()
        with contextlib.suppress(Exception):
            self.procs.pop(dead).wait(timeout=5)
        # Its tail is in ``crash``; the respawn opens a new file.
        with contextlib.suppress(OSError):
            os.unlink(self.stderr_paths.pop(dead))
        ships: list[tuple[int, tuple]] = []
        for shard in adjacent:
            await self._send(shard, ("ship-log", dead))
            ships.extend((await self._expect(shard, "ship-log", "recovery"))[1])
        self.registry.expect_rejoin(dead)
        self._spawn(dead, chaos=False)
        replacement = await self._guarded(
            self.registry.rejoin(sim.worker_timeout), phase="respawn"
        )
        self._adopt(replacement)
        # Survivors with no topology edge to the dead shard (e.g. opposite
        # sides of a wan ring) are left alone: they never ship to the
        # replacement, and dialing it anyway would plant a barrier-round
        # entry the replacement waits on forever.
        for shard in adjacent:
            await self._send(
                shard, ("peer-update", dead, replacement.host, replacement.port)
            )
            await self._expect(shard, "peer-ok", "recovery")
            if self.park[shard][0] == "blocked":
                self.park[shard] = None  # the replacement unblocks it
        await self._send(
            dead, ("spec", {**self.spec, "faults": None, "replay": ships})
        )
        self.injected[dead] = (await self._expect(dead, "ready", "recovery"))[1]
        self.dead.discard(dead)
        replayed = crash.round or 0
        self.replayed_rounds += replayed
        self._count("recovery.respawns")
        if replayed:
            self._count("recovery.replayed_rounds", replayed)
        if self.chaos_spans is not None:
            self.chaos_spans.record(
                "recovery", "chaos", t0, wall(),
                args={
                    "shard": dead,
                    "replayed_rounds": replayed,
                    "round": crash.round,
                    "phase": crash.phase,
                },
            )

    # -- teardown and result ----------------------------------------------

    async def close(self) -> None:
        for pump in self.pumps:
            pump.cancel()
        await asyncio.gather(*self.pumps, return_exceptions=True)
        await self.registry.close()
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
        for path in self.stderr_paths.values():
            with contextlib.suppress(OSError):
                os.unlink(path)

    def result(
        self, payloads: list[dict[str, Any]], scrambled: bool, fill_channels: bool
    ) -> ClusterRunResult:
        sim, obs, ledger = self.sim, self.obs, self.ledger
        with self._phase("merge"):
            trace = merge_worker_traces(
                payloads, scrambled, fill_channels, sum(self.injected.values())
            )
            stats = SimStats()
            finals: dict[int, RequestState] = {}
            for payload in payloads:
                stats.merge(payload["stats"])
                finals.update(payload["finals"])
            completions = merge_completions(payloads)
        fault_counts = dict(self.counts)
        for payload in payloads:
            for name, n in (payload.get("fault_counts") or {}).items():
                fault_counts[name] = fault_counts.get(name, 0) + n
        # Every worker runs the same grid, so they agree on the count.
        barriers = max(self.rounds.values())
        #: What the rounds phase cost beyond the slowest worker's compute.
        sync_wall = max(
            0.0, self.rounds_wall - max(self.worker_wall.values(), default=0.0)
        )
        if obs is not None:
            for payload in payloads:
                if payload.get("obs") is not None:
                    obs.merge_worker(payload["obs"])
            obs.metrics.inc("sync.barriers", barriers)
            obs.metrics.gauge_max("sync.window", sim.window)
            obs.metrics.observe("sync.wall_s", sync_wall)
            obs.metrics.inc("registry.round_trips", self.registry.round_trips)
            for name, n in self.counts.items():
                obs.metrics.inc(name, n)
            chaos_payload = self.chaos_spans.payload()
            if chaos_payload:
                obs.spans.extend(chaos_payload)
                obs.process_names[sim.n_shards + 1] = "chaos"
        assert ledger.final is not None
        return ClusterRunResult(
            trace=trace,
            stats=stats,
            finals=finals,
            completions=completions,
            completed=ledger.completed,
            done_at=ledger.done_tick,
            final_time=ledger.final,
            partition=sim.partition,
            sync=sim.sync,
            window=sim.window,
            barriers=barriers,
            sync_wall_s=sync_wall,
            worker_wall_s=self.worker_wall,
            registry_round_trips=self.registry.round_trips,
            fault_counts=fault_counts,
            recoveries=self.respawns,
            replayed_rounds=self.replayed_rounds,
        )
