"""The coordinator side of the window-sync runtime: the worker pool and
one trial's coordinator.

Everything here needs an event loop, subprocesses or the registry, so
nothing imports it before the first
:meth:`~repro.net.cluster.ClusterSimulator.run_trial` — ``prepare`` (and
a ``setup_s`` measurement) never pays for it.  The protocol itself —
leases, grants, barriers, fault injection and crash
recovery — is described in :mod:`repro.net.cluster`.
"""

from __future__ import annotations

import asyncio
import atexit
import contextlib
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.engine.base import EngineRun
from repro.errors import SimulationError, WorkerCrashed
from repro.net import wire
from repro.net.cluster import ClusterSimulator
from repro.net.grant import Grant, GrantLedger
from repro.net.registry import RegistryServer
from repro.obs.spans import SpanRecorder, wall
from repro.sim.sharded import merge_completions, merge_worker_traces
from repro.sim.stats import SimStats
from repro.types import RequestState

if TYPE_CHECKING:
    from repro.obs.recorder import ObsRecorder

__all__ = ["close_pool", "interpreters_spawned", "run_trial"]

#: How often the coordinator polls worker Popen handles while awaiting a
#: control frame — the crash-detection latency bound.
_CRASH_POLL_S = 0.25

#: Crash recoveries one trial may perform; the next crash re-raises its
#: :class:`~repro.errors.WorkerCrashed`.
_MAX_RESPAWNS = 2


#: Worker interpreters this process has launched, over its whole life
#: (pool re-creations included) — see :func:`interpreters_spawned`.
_SPAWNED = 0


def interpreters_spawned() -> int:
    """How many worker interpreters this process has launched so far.

    The CI gates bound the difference over their case tables by ``max
    hosts + crash-token shards + recoveries``, so a per-trial spawn
    cannot quietly return."""
    return _SPAWNED


@dataclass
class _Worker:
    """One leased slot: the worker's process and its control channel."""

    shard: int
    #: None for a hand-launched worker (``listen=``).
    popen: subprocess.Popen | None = None
    #: The worker's stderr: an *anonymous* temp file (unlinked at open),
    #: so nothing can outlive the two processes that hold it.
    stderr: IO[bytes] | None = None
    #: None until the worker has registered.
    handle: Any = None

    def stderr_tail(self, limit: int = 4000) -> str:
        """The last ``limit`` bytes the worker wrote to stderr.  Read by
        offset: the child shares the open file description, so a seek
        here would move its write position."""
        if self.stderr is None:
            return ""
        try:
            fd = self.stderr.fileno()
            size = os.fstat(fd).st_size
            data = os.pread(fd, limit, max(0, size - limit))
        except (OSError, ValueError):
            return ""
        return data.decode("utf-8", "replace").strip()


def _worker_env() -> dict[str, str]:
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


class _WorkerPool:
    """Worker interpreters that outlive the trial, and what they are
    bound to: one event loop (a stream cannot leave the loop it was
    opened on, and ``asyncio.run`` makes a new one per call), one
    :class:`~repro.net.registry.RegistryServer`, one slot per shard id.

    A trial *leases* slots ``0..n_shards-1``: a live idle worker is
    reused, the shortfall is spawned, and the pool only ever grows to
    the largest ``hosts`` it has seen.  A worker returns to the pool
    when its trial returned and it acknowledged ``idle``; a trial that
    raised discards every worker it leased.  The process-wide pool
    (:func:`_shared_pool`) is closed at interpreter exit; with
    ``listen=`` a trial gets a pool of its own on that address, whose
    workers are hand-launched and told to ``exit`` when it ends.
    """

    def __init__(self, listen: str | None = None) -> None:
        self.pid = os.getpid()
        self.spawns = listen is None
        self.loop = asyncio.new_event_loop()
        host, port = wire.parse_hostport(listen) if listen else ("127.0.0.1", 0)
        self.registry = RegistryServer(host=host, port=port)
        self.workers: dict[int, _Worker] = {}

    def spawn(self, shard: int, chaos: str | None = None) -> _Worker:
        """Launch one localhost worker interpreter into slot ``shard``.

        Workers are fresh interpreters (``python -m repro cluster-worker``),
        not forks — the same launch command works on a remote machine, which
        is the point.  A crash fault rides the argv (``--chaos``): it must
        exist before the control channel does.
        """
        global _SPAWNED
        argv = [
            sys.executable, "-m", "repro", "cluster-worker",
            "--registry", self.registry.address, "--shard", str(shard),
        ]
        if chaos is not None:
            argv += ["--chaos", chaos]
        stderr = tempfile.TemporaryFile()
        try:
            popen = subprocess.Popen(argv, env=_worker_env(), stderr=stderr)
        except BaseException:
            stderr.close()
            raise
        _SPAWNED += 1
        worker = self.workers[shard] = _Worker(shard, popen, stderr)
        return worker

    def retire(self, shards, *, graceful: bool) -> None:
        """Drop these slots' workers and reap their processes: ``exit``
        then wait when ``graceful`` (idle workers), else terminate;
        either way wait(5) and kill what is left."""
        workers = [
            self.workers.pop(shard) for shard in list(shards)
            if shard in self.workers
        ]
        for worker in workers:
            if graceful and worker.handle is not None:
                # Sent at once (the transport's buffer is empty), so this
                # works from synchronous code too — interpreter exit.
                with contextlib.suppress(OSError):
                    worker.handle.writer.write(wire.encode_control(("exit",)))
            self.registry.forget(worker.shard)
            if (
                not graceful
                and worker.popen is not None
                and worker.popen.poll() is None
            ):
                worker.popen.terminate()
        for worker in workers:
            if worker.popen is not None:
                try:
                    worker.popen.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    worker.popen.kill()
                    worker.popen.wait()
            if worker.stderr is not None:
                worker.stderr.close()

    def close(self) -> None:
        """Retire every worker, then close the registry and the loop
        (which closes the sockets: control EOF ends a worker that missed
        its ``exit``)."""
        self.retire(self.workers, graceful=True)
        with contextlib.suppress(Exception):
            self.loop.run_until_complete(self._shutdown())
        self.loop.close()

    async def _shutdown(self) -> None:
        await self.registry.close()
        # What an abandoned trial left cancelled but never awaited.
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


_POOL: _WorkerPool | None = None


def _shared_pool() -> _WorkerPool:
    """The process-wide pool, made on first use.  A forked child sees
    its parent's pool as empty and makes its own: the inherited handles
    are the parent's to drive and tear down."""
    global _POOL
    if _POOL is None or _POOL.pid != os.getpid():
        _POOL = _WorkerPool()
    return _POOL


def close_pool() -> None:
    """Retire the process-wide worker pool (also run at interpreter
    exit); the next cluster trial starts a new one."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None and pool.pid == os.getpid():
        pool.close()


atexit.register(close_pool)

def run_trial(
    sim: ClusterSimulator, spec: dict[str, Any], obs: ObsRecorder | None
) -> EngineRun:
    """Lease the workers for ``sim`` and coordinate the one trial
    ``spec`` describes (the body of
    :meth:`~repro.net.cluster.ClusterSimulator.run_trial`)."""
    pool = _shared_pool() if sim.listen is None else _WorkerPool(sim.listen)
    trial = _Coordinator(sim, pool, spec, obs)
    running = pool.loop.create_task(trial.run())
    try:
        payloads = pool.loop.run_until_complete(running)
    except BaseException:
        # A worker is reused only after a trial that returned — and
        # an interrupted coordinator must not wake in the next one.
        running.cancel()
        trial.abandon()
        raise
    finally:
        if sim.listen is not None:
            pool.close()
    return trial.result(payloads)


class _Coordinator:
    """One trial's coordinator: the workers it leased, their control
    channels, the grant ledger and crash recovery (a re-run).

    Every worker's CONTROL frames funnel into one inbox (a reader task
    per handle), so the coordinator serves whoever speaks next instead of
    polling the workers in shard order; :meth:`_next` is the one await
    every phase sits in, and the one place worker death is noticed.
    """

    def __init__(
        self,
        sim: ClusterSimulator,
        pool: _WorkerPool,
        spec: dict[str, Any],
        obs: ObsRecorder | None,
    ) -> None:
        self.sim = sim
        self.pool = pool
        self.obs = obs
        n = sim.n_shards
        #: The slots this trial leased (a crashed shard's entry is
        #: replaced by its respawn).
        self.workers: dict[int, _Worker] = {}
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.pumps: list[asyncio.Task] = []
        #: Shards noticed dead and not (yet) replaced.
        self.dead: set[int] = set()
        #: Shards sent ``stop`` and not yet their next ``spec``: they are
        #: sent nothing else.
        self.stopped: set[int] = set()
        self.counts: dict[str, int] = {}
        self.chaos_spans = SpanRecorder(pid=n + 1) if obs is not None else None
        self.respawns = 0
        self.replayed_rounds = 0
        #: The trial as shipped to every worker (``peers`` joins it once
        #: the lease knows them).
        self.spec = spec
        self.rounds_wall = 0.0
        self._new_attempt()
        #: REGISTER/PEERS exchanges before this trial: what it reports
        #: is what *it* cost (none on a warm lease).
        self.round_trips_before = pool.registry.round_trips

    def _new_attempt(self) -> None:
        """Forget what an aborted attempt of the trial left: the next one
        starts from the spec, like the first."""
        sim, shards = self.sim, range(self.sim.n_shards)
        self.ledger = GrantLedger(
            sim.n_shards, sim.window, self.spec["drain"], self.spec["horizon"]
        )
        #: Per shard: the last grant sent, the park reason of its last
        #: report (None = running), the round it reported, its compute,
        #: and what its scramble injected.
        self.sent: dict[int, Grant] = {shard: Grant(-1, None) for shard in shards}
        self.park: dict[int, tuple | None] = dict.fromkeys(shards)
        self.rounds: dict[int, int] = {}
        self.worker_wall: dict[int, float] = {}
        self.injected: dict[int, int] = {}
        self.stopped.clear()
        # The workers' own counters are the last attempt's; so is this.
        self.counts.pop("ship.nak_relayed", None)

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _phase(self, name: str, **args):
        """A coordinator-lane phase span; the phases do not overlap."""
        if self.obs is None:
            return contextlib.nullcontext()
        return self.obs.phase(name, **args)

    # -- workers and their control channels -------------------------------

    def _adopt(self, worker: _Worker) -> None:
        """Start reading a registered worker's control channel."""
        self.pumps.append(asyncio.ensure_future(self._pump(worker.handle)))

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
            await self.workers[shard].handle.send(message)

    def _first_dead(self) -> int | None:
        for shard, worker in sorted(self.workers.items()):
            if (
                shard not in self.dead
                and worker.popen is not None
                and worker.popen.poll() is not None
            ):
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
        worker = self.workers[shard]
        exit_code = None
        if worker.popen is not None:
            # Control EOF can beat the exit status by a moment: a dying
            # process's sockets close before it can be reaped.
            with contextlib.suppress(subprocess.TimeoutExpired):
                exit_code = worker.popen.wait(timeout=1)
        return WorkerCrashed(
            "cluster worker died",
            shard=shard,
            round=round_no,
            phase=phase,
            exit_code=exit_code,
            stderr_tail=worker.stderr_tail() or None,
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
            if self.workers[shard].handle is not handle:
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
                # dead or stopped: its attempt is over, and a stopped
                # worker is sent nothing but its next spec.
                _, nak_from, peer, nak_round = message
                self._count("ship.nak_relayed")
                if peer not in self.dead and peer not in self.stopped:
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

    async def run(self) -> list[dict[str, Any]]:
        sim, obs = self.sim, self.obs
        started = time.perf_counter()
        await self._lease()
        if obs is not None:
            # The lease wall: interpreter boots when cold, ~30 us warm.
            obs.metrics.observe(
                "registry.rendezvous_wall_s", time.perf_counter() - started
            )
        self.spec["peers"] = {
            shard: (worker.handle.host, worker.handle.port)
            for shard, worker in self.workers.items()
        }
        while True:
            try:
                with self._phase("startup"):
                    await self._startup()
                started = time.perf_counter()
                with self._phase("rounds"):
                    await self._granted_rounds()
                self.rounds_wall = time.perf_counter() - started
                break
            except WorkerCrashed as crash:
                await self._recover(crash)
                self._new_attempt()
        with self._phase("result_ship"):
            for shard in self.workers:
                await self._send(shard, ("result",))
            payloads: dict[int, dict[str, Any]] = {}
            while len(payloads) < sim.n_shards:
                shard, message = await self._next("result")
                if message[0] == "result":
                    payloads[shard] = message[1]
        with self._phase("release"):
            await self._stop(self.workers, "release")
            # Every channel is quiet now, so no read is cut mid-frame.
            for pump in self.pumps:
                pump.cancel()
            await asyncio.gather(*self.pumps, return_exceptions=True)
            # A cancelled pump keeps its CancelledError, whose traceback
            # holds the pump's frame, whose self is this coordinator.
            self.pumps = []
        return [payloads[shard] for shard in sorted(payloads)]

    async def _lease(self) -> None:
        """Fill slots ``0..n_shards-1`` from the pool: reuse a live idle
        worker, spawn the shortfall.  A shard whose plan carries a crash
        token is always spawned fresh — the fault *is* a fresh
        interpreter's lifecycle — and a pooled worker found dead is
        replaced without comment."""
        sim, pool = self.sim, self.pool
        shards = range(sim.n_shards)
        plan = sim._plan
        await pool.registry.start()
        pool.registry.slots = max(pool.registry.slots, sim.n_shards)
        tokens = {
            shard: plan.crash_token(shard) if plan else None for shard in shards
        }
        stale = [
            shard for shard in shards
            if shard in pool.workers and (
                tokens[shard] is not None
                or pool.workers[shard].popen.poll() is not None
            )
        ]
        if stale:
            with self._phase("reap", workers=len(stale)):
                pool.retire(stale, graceful=True)
        fresh = [shard for shard in shards if shard not in pool.workers]
        args = {"spawned": len(fresh), "reused": sim.n_shards - len(fresh)}
        with self._phase("spawn", **args):
            for shard in fresh:
                if pool.spawns:
                    pool.spawn(shard, tokens[shard])
                else:  # hand-launched: the slot waits for its REGISTER
                    pool.workers[shard] = _Worker(shard)
            self.workers = {shard: pool.workers[shard] for shard in shards}
        with self._phase("rendezvous", **args):
            joined = await self._guarded(
                pool.registry.join(fresh, sim.worker_timeout),
                phase="rendezvous",
            )
            for handle in joined:
                self.workers[handle.shard].handle = handle
            for worker in self.workers.values():
                self._adopt(worker)

    def abandon(self) -> None:
        """The trial raised: nothing it leased goes back to the pool."""
        for pump in self.pumps:
            pump.cancel()
        self.pumps = []  # the pool's next loop pass finishes them
        self.pool.retire(range(self.sim.n_shards), graceful=False)

    async def _startup(self) -> None:
        """Ship the spec, with each shard's slice of the fault plan, and
        await every worker's ``ready``."""
        plan = self.sim._plan
        shard_of = self.sim.partition.shard_of
        for shard in sorted(self.workers):
            faults = plan.worker_slice(shard, shard_of) if plan else None
            await self._send(shard, ("spec", {**self.spec, "faults": faults}))
        while len(self.injected) < self.sim.n_shards:
            shard, message = await self._next("startup")
            if message[0] == "ready":
                self.injected[shard] = message[1]

    async def _stop(self, shards, phase: str) -> None:
        """End the trial on ``shards``: no worker is handed another spec
        before each has closed its links and acknowledged ``idle``."""
        pending = set(shards)
        for shard in sorted(pending):
            self.stopped.add(shard)
            await self._send(shard, ("stop",))
        while pending:
            shard, message = await self._next(phase)
            if message[0] == "idle":
                pending.discard(shard)

    async def _granted_rounds(self) -> None:
        """Grant credit as reports arrive until every worker has
        finished."""
        shards = range(self.sim.n_shards)
        while True:
            grant = self.ledger.grant()
            for shard in shards:
                if self.sent[shard] != grant:
                    self.sent[shard] = grant
                    await self._send(shard, ("grant", *grant))
            if all(self._parked(shard) == "final" for shard in shards):
                return
            shard, message = await self._next("barrier")
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

    async def _recover(self, crash: WorkerCrashed) -> None:
        """Respawn a crashed shard so the trial can run again.

        Waits until every survivor adjacent to the dead shard is parked
        (blocked on the lost peer, out of credit, or finished — no grant
        is issued meanwhile, so each gets there): a ``blocked`` report
        names the round the dead worker died in.  Then every survivor is
        stopped as at the end of a trial, and the dead slot is respawned
        without its crash fault.  A trial is a pure function of
        ``(seed, spec)``, so the caller's re-run from the spec is the
        serial engine's trial again: nothing of the aborted attempt is
        carried over.
        """
        sim = self.sim
        dead = crash.shard
        survivors = [shard for shard in sorted(self.workers) if shard != dead]
        adjacent = [
            shard for shard in survivors
            if dead in sim.partition.peer_shards(shard)
        ]
        while not all(self._parked(shard) for shard in adjacent):
            await self._next("recovery")
        # The dead worker died in the first round whose barrier it never
        # announced; failing that, the last one it reported.
        awaited = [
            self.park[shard][2] for shard in adjacent
            if self.park[shard][:2] == ("blocked", dead)
        ]
        crash = self._died(
            dead, crash.phase, min(awaited) if awaited else self.rounds.get(dead)
        )
        if not (
            sim.recover
            and sim.listen is None
            and self.respawns < _MAX_RESPAWNS
        ):
            raise crash
        t0 = wall()
        self.respawns += 1
        await self._stop(survivors, "recovery")
        # Its stderr tail is in ``crash``; this closes the file and the
        # control channel and empties the slot for the respawn.
        self.pool.retire([dead], graceful=False)
        worker = self.workers[dead] = self.pool.spawn(dead)
        [worker.handle] = await self._guarded(
            self.pool.registry.join([dead], sim.worker_timeout), phase="respawn"
        )
        self._adopt(worker)
        self.spec["peers"][dead] = (worker.handle.host, worker.handle.port)
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

    # -- result -----------------------------------------------------------

    def result(self, payloads: list[dict[str, Any]]) -> EngineRun:
        sim, obs, ledger = self.sim, self.obs, self.ledger
        with self._phase("merge"):
            trace = merge_worker_traces(
                payloads, self.spec["scramble_seed"] is not None,
                self.spec["fill_channels"], sum(self.injected.values()),
            )
            stats = SimStats()
            finals: dict[int, RequestState] = {}
            for payload in payloads:
                stats.merge(payload["stats"])
                finals.update(payload["finals"])
            completions = merge_completions(payloads)
        round_trips = self.pool.registry.round_trips - self.round_trips_before
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
            obs.metrics.inc("registry.round_trips", round_trips)
            for name, n in self.counts.items():
                obs.metrics.inc(name, n)
            chaos_payload = self.chaos_spans.payload()
            if chaos_payload:
                obs.spans.extend(chaos_payload)
                obs.process_names[sim.n_shards + 1] = "chaos"
        assert ledger.final is not None
        run = EngineRun(
            trace=trace,
            stats=stats,
            finals=finals,
            completions=completions,
            completed=ledger.completed,
            final_time=ledger.final,
            topology=sim.topology,
            pids=sim.pids,
            engine="cluster",
            window=sim.window,
            barriers=barriers,
            sync_wall_s=sync_wall,
            hosts=sim.n_shards,
            worker_wall_s=self.worker_wall,
            registry_round_trips=round_trips,
        )
        if sim._plan is not None:
            # Injected-fault and recovery counters, coordinator + workers.
            run.fault_counts = dict(self.counts)
            for payload in payloads:
                for name, n in (payload.get("fault_counts") or {}).items():
                    run.fault_counts[name] = run.fault_counts.get(name, 0) + n
            run.recoveries = self.respawns
            run.replayed_rounds = self.replayed_rounds
        return run
