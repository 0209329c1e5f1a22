"""The cluster worker interpreter: one shard slot of a multi-host run.

``python -m repro cluster-worker`` lands in :func:`run_cluster_worker`.
The process has one lifecycle, whoever launched it (the coordinator's
pool, a fault plan's ``--chaos`` spawn, a hand on a remote machine):
open a peer server, REGISTER once, then serve trials until the control
channel says ``exit`` or closes::

    spec -> ready -> grant/report ... -> result -> stop
         -> per-trial teardown -> ("idle",) -> wait for the next spec

Within a trial it hosts a plain :class:`~repro.sim.runtime.Simulator`
slice for its shard (a round is ``scheduler.run_until(target)``, the
serial engine's own loop), dials the peers named in the spec, and runs
its rounds on its own under the coordinator's grants
(:mod:`repro.net.cluster` — see there for the protocol and the
fault/recovery design;
:mod:`repro.net.grant` for the arithmetic), synchronising with its peers
only through ``BARRIER`` frames.  A control reader serves the CONTROL
channel beside the round loop, so a worker blocked on a peer barrier
still answers ``resend`` and ``stop`` (a crash recovery ends the trial
there and runs it again) — and notices at once when the coordinator is
gone: control EOF ends the process in every state (idle between trials,
blocked on a barrier, out of credit), so a killed coordinator leaves no
orphan.

The wait between trials is untimed; everything inside a trial keeps its
deadline.  What a trial accumulates lives on one :class:`_Trial` per
``spec`` and goes with it, peer links included (why they are not kept:
:class:`_ClusterWorker`).

A worker cannot REGISTER before this module is imported, so it imports
only what a worker runs: nothing of the coordinator
(``repro.net.coordinator``), the trial pipeline (``repro.engine``,
``repro.analysis``, ``repro.spec``) or the asyncio engine
(``repro.net.engine``, its clocks and transports).
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from collections import deque
from typing import Any

from repro.chaos.backoff import Backoff, retry_async
from repro.core.protocols import build_protocol
from repro.core.requests import RequestDriver
from repro.errors import SimulationError
from repro.net import wire
from repro.net.grant import RoundGrid
from repro.net.registry import RegistryClient
from repro.obs.recorder import ObsRecorder
from repro.obs.spans import wall
from repro.sim.partition import Partition
from repro.sim.runtime import Simulator
from repro.sim.scheduler import END_OF_TICK
from repro.sim.sharded import _KeyedTrace, scramble_shard, shard_result_payload

__all__ = ["run_cluster_worker"]

#: Exit code of an injected ``crash worker`` fault (distinct from 1, the
#: generic worker-error exit, so tests can tell them apart).
_CHAOS_EXIT = 70

#: How long a booted worker waits for the registry to answer.
_REGISTER_TIMEOUT_S = 120.0

#: How long a barrier wait polls its links before it sleeps.  The peers
#: compute the same round at the same time, so a barrier is usually a
#: fraction of a millisecond away — and what a sleep that short costs is
#: set by the host (an idle virtual core comes back when the other guests
#: let it).  Each poll yields the core first: a peer that shares it
#: (more workers than cores) runs instead of the poll.
_BARRIER_POLL_S = 0.0005


class _CoordinatorGone(Exception):
    """The control channel closed: the coordinator exited, or died."""


class _ClusterWorker:
    """One worker interpreter: registers once, then serves trial after
    trial until the coordinator says ``exit`` or its control channel
    closes.

    What outlives a trial is only what the registration names — the
    control channel and the peer server's port.  Everything a trial
    touches lives on one fresh :class:`_Trial` per ``spec``; its peer
    links are dialled at ``spec`` and closed, their pumps cancelled and
    awaited, *before* the ``idle`` acknowledgement — a peer's last-round
    SHIP/BARRIER can still be in flight when its receiver finishes, and
    on a kept link it would seed the next trial's barrier rounds.  The
    coordinator sends no ``spec`` until every worker of the previous
    trial has acknowledged, so an inbound link that opens while no trial
    is up belongs to the next one and waits for it.

    ``--chaos`` argv names a crash point; the worker ``os._exit``\\ s
    there after one stderr line (the coordinator's diagnosis).  It stays
    armed until a trial ships its result: an attempt that a peer's crash
    aborted is run again, crash point included.
    """

    def __init__(
        self,
        shard: int,
        registry_host: str,
        registry_port: int,
        advertise_host: str,
        chaos: str | None = None,
    ) -> None:
        self.shard = shard
        self.client = RegistryClient(registry_host, registry_port)
        self.advertise_host = advertise_host
        self.trial: _Trial | None = None
        #: Inbound links wait on this: a fast peer can dial and ship
        #: round 0 before this worker has read its spec or built its
        #: shard, and a BARRIER processed before the trial seeds its
        #: barrier rounds would be overwritten (a lost barrier deadlocks
        #: the round loop).  TCP buffers the frames until the trial
        #: state exists.
        self._trial_ready = asyncio.Event()
        #: Inbound link tasks — all of the current trial (see above).
        self._pumps: set[asyncio.Task] = set()
        # Crash fault ("phase" or "phase:round", from --chaos argv).
        phase, _, round_s = (chaos or "").partition(":")
        self._crash_phase = phase or None
        self._crash_round = int(round_s) if round_s else 0

    def _maybe_crash(self, phase: str, round_no: int = 0) -> None:
        if self._crash_phase != phase:
            return
        if phase in ("barrier", "round") and round_no != self._crash_round:
            return
        at = f"{phase} {round_no}" if round_no else phase
        print(
            f"chaos: injected crash at {at} (shard {self.shard})",
            file=sys.stderr,
            flush=True,
        )
        os._exit(_CHAOS_EXIT)

    async def recv(self) -> Any:
        """The next CONTROL message.  Untimed: an idle pooled worker
        waits as long as its coordinator lives — and no longer."""
        try:
            return await self.client.recv()
        except (asyncio.IncompleteReadError, ConnectionError):
            raise _CoordinatorGone from None

    async def run(self) -> None:
        # The peer server opens before registration: the registry must
        # only ever name live, dialable endpoints.
        local = self.advertise_host in ("127.0.0.1", "localhost")
        server = await asyncio.start_server(
            self._accept_peer,
            host="127.0.0.1" if local else None,
            port=0,
        )
        port = server.sockets[0].getsockname()[1]
        try:
            self._maybe_crash("rendezvous")
            await self.client.register(
                self.shard, self.advertise_host, port, timeout=_REGISTER_TIMEOUT_S
            )
            while True:
                op, *args = await self.recv()
                if op == "exit":
                    return
                if op != "spec":
                    raise SimulationError(f"expected a trial spec, got {op!r}")
                trial = self.trial = _Trial(self, *args)
                if self.client.dial_retries:  # once, not once per trial
                    trial._count("backoff.retries", self.client.dial_retries)
                    self.client.dial_retries = 0
                try:
                    await trial.run()
                finally:
                    self._trial_ready.clear()
                    self.trial = None
                    await trial.teardown()
                if trial.result_shipped:
                    self._crash_phase = None  # a finished trial's fault
                await self.client.send(("idle",))
                trial.close()
        finally:
            server.close()
            await server.wait_closed()

    async def _accept_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._pumps.add(task)
        try:
            await self._trial_ready.wait()
            assert self.trial is not None
            await self.trial.pump(reader)
        except asyncio.CancelledError:
            return  # teardown
        finally:
            writer.close()
            self._pumps.discard(task)


class _Trial:
    """One trial on one shard: a Simulator slice behind the fabric, and
    every piece of state the trial accumulates — built fresh per
    ``spec``, so nothing needs resetting between trials.

    Fault machinery riding the fabric:

    * A link's round — its ships, in send order — is logged per (peer
      shard, round) before any fault or link state can eat it; the log
      feeds NAK resends.  It travels as one SHIP frame.  A link's rounds
      ``<= r`` leave the log once the peer's BARRIER(r+1) is accepted:
      the peer ran round r+1, so it had accepted our barrier r — it will
      NAK none of them.  Every ship log is therefore bounded.
    * BARRIER frames carry the round's ship count; receivers tally unique
      decodable ships per (peer, round) and NAK a shortfall over CONTROL.
    * ``drop ship`` leaves a matching ship out of the frame's list,
      ``duplicate ship`` writes it there twice, ``corrupt ship``
      truncates the frame that carries it — the whole link-round comes
      up short and one NAK heals it.
    * ``cut link`` buffers a link's frames in order (ships *and*
      barriers) and flushes them after a wall-clock hold — pure delay.
    """

    def __init__(self, worker: _ClusterWorker, spec: dict[str, Any]) -> None:
        self.worker = worker
        self.shard = worker.shard
        self.client = worker.client
        self.spec = spec
        self.timeout: float = spec["timeout"]
        self.partition = Partition(
            topology=spec["topology"], shards=spec["shards"]
        )
        self.peers = self.partition.peer_shards(self.shard)
        self.shard_pids = spec["shards"][self.shard]
        #: The shard itself: the serial engine hosting this slice, under
        #: a trace that records each emission's merge position.
        self.sim = Simulator(
            build=build_protocol(spec["protocol"]),
            topology=spec["topology"],
            hosts_for=self.shard_pids,
            seed=spec["seed"],
            capacity=spec["capacity"],
            latency=spec["latency"],
            loss=spec["loss"],
        )
        self.trace = self.sim.trace = _KeyedTrace(self.sim.scheduler)
        self.obs: ObsRecorder | None = None
        if spec["obs"]:
            # Coordinator lane is pid 0; worker lanes follow shard order.
            # The interpreter has served other trials: count this one's
            # frames from here.
            self.obs = ObsRecorder(pid=self.shard + 1, name=f"shard{self.shard}")
            self.obs.mark_wire_baseline()
        self._peer_writers: dict[int, asyncio.StreamWriter] = {}
        #: Latest barrier round seen per in-peer (-1 = none yet).
        self._barrier_round: dict[int, int] = dict.fromkeys(self.peers, -1)
        #: The round loop's barrier wait, resolved by :meth:`_wake` — a
        #: bare future, because this wait is paid once per round.
        self._barrier_waiter: asyncio.Future | None = None
        #: The round grid under the coordinator's latest grant; the
        #: control reader sets ``_granted`` when a new one arrives.
        self._grid = RoundGrid(spec["window"], spec["horizon"], spec["drain"])
        self._granted = asyncio.Event()
        #: Whether rounds jump past quiet ticks (:mod:`repro.net.grant`):
        #: only when every shard's barrier reaches every worker, so all
        #: of them take the same minimum — a worker that missed a shard's
        #: bound would jump where its peers step.
        self._jumps = self.partition.fully_peered()
        #: round -> minimum next-event bound over the barriers of that
        #: round accepted so far, this shard's own included.
        self._next_event: dict[int, int] = {}
        #: Passive counters: ships logged, rounds jumped and the quiet
        #: ticks they skipped.
        self._ships_out = 0
        self._rounds_jumped = 0
        self._ticks_jumped = 0
        self._errors: list[BaseException] = []
        #: Whether the coordinator has this trial's result: what disarms
        #: the worker's crash fault.
        self.result_shipped = False
        #: Outbound ship log: peer shard -> round -> ships in send order.
        self._ship_log: dict[int, dict[int, list[tuple]]] = {
            peer: {} for peer in self.peers
        }
        #: Ships already delivered locally, by (src, dst, entry_seq) —
        #: entry seqs are monotone per channel, so the key is unique and
        #: resent/duplicated ships are absorbed exactly once.
        self._seen: set[tuple[int, int, int]] = set()
        #: Unique decodable ships received per (peer shard, round).
        self._recv_counts: dict[tuple[int, int], int] = {}
        #: Counted barriers whose ships have not all arrived yet.
        self._pending_barriers: dict[int, deque] = {}
        self._nakked: set[tuple[int, int]] = set()
        #: Peers whose outbound link is down (a dead worker).
        self._broken_links: set[int] = set()
        #: In-peers whose inbound link closed: the peer died, and the
        #: trial cannot finish without a re-run.
        self._lost_peers: set[int] = set()
        #: peer shard -> (start round, hold seconds) for planned cuts.
        self._cut_plan: dict[int, tuple[int, float]] = {}
        #: Active cut buffers (frames withheld, in order).
        self._cut_buffers: dict[int, list[bytes]] = {}
        self._cut_tasks: list[asyncio.Task] = []
        self._ship_faults: list[dict[str, Any]] = []
        self._stalls: dict[int, float] = {}
        self._fault_counts: dict[str, int] = {}
        self._load_faults(spec.get("faults"))

    def _count(self, name: str, n: int = 1) -> None:
        self._fault_counts[name] = self._fault_counts.get(name, 0) + n

    # -- fabric ----------------------------------------------------------

    async def _dial_peer(
        self, peer: int, host: str, port: int, *, timeout: float
    ) -> None:
        async def dial() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            return await asyncio.open_connection(host, port)

        _reader, writer = await retry_async(
            dial,
            backoff=Backoff(initial=0.05, cap=0.5),
            timeout=timeout,
            describe=f"peer dial shard {self.shard}->{peer}",
            on_retry=lambda _delay: self._count("backoff.retries"),
        )
        writer.write(wire.encode_hello(self.shard))
        await writer.drain()
        self._peer_writers[peer] = writer

    async def _connect_peers(self, peers: dict[int, tuple[str, int]]) -> None:
        for peer in self.peers:
            host, port = peers[peer]
            try:
                await self._dial_peer(peer, host, port, timeout=2.0)
            except (SimulationError, OSError):
                # The peer died between registering and opening for
                # business (a peering-phase crash).  Mark the link broken
                # and carry on: the coordinator has noticed the death and
                # will stop this attempt and run the trial again.
                self._broken_links.add(peer)

    async def pump(self, reader: asyncio.StreamReader) -> None:
        """Serve one inbound peer link until it closes."""
        src_shard: int | None = None
        try:
            kind, payload = await wire.read_frame(reader)
            if kind != wire.HELLO:
                raise wire.WireError("peer link did not open with a HELLO frame")
            src_shard = wire.decode_hello(payload)
            while True:
                kind, payload = await wire.read_frame(reader)
                if kind == wire.SHIP:
                    try:
                        round_no, ships = wire.decode_ships(payload)
                    except wire.WireError:
                        # An injected corruption keeps the framing intact
                        # but kills the pickle.  Count it and move on:
                        # the round's barrier count will come up short
                        # and the NAK path re-ships the round.
                        self._count("ship.corrupt_received")
                        continue
                    fresh = 0
                    for src, dst, msg, when, entry_seq in ships:
                        key = (src, dst, entry_seq)
                        if key in self._seen:
                            self._count("ship.duplicate_dropped")
                            continue
                        self._seen.add(key)
                        # The window bound puts `when` beyond the
                        # current window; post_at's past-time check stays
                        # active as a causality assertion.
                        self.sim.schedule_remote_arrival(
                            src, dst, msg, when, entry_seq
                        )
                        fresh += 1
                    if fresh:
                        link_round = (src_shard, round_no)
                        self._recv_counts[link_round] = (
                            self._recv_counts.get(link_round, 0) + fresh
                        )
                        self._drain_barriers(src_shard)
                elif kind == wire.BARRIER:
                    shard, *barrier = wire.decode_barrier(payload)
                    if shard != src_shard:
                        raise wire.WireError(
                            f"barrier names shard {shard} on shard "
                            f"{src_shard}'s link"
                        )
                    self._pending_barriers.setdefault(shard, deque()).append(
                        barrier
                    )
                    self._drain_barriers(shard)
                else:
                    raise wire.WireError(
                        f"unexpected frame kind 0x{kind:02x} on a peer link"
                    )
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return  # peer closed (or died — the trial is run again)
        except Exception as exc:  # noqa: BLE001 - surfaced at the next barrier
            self._errors.append(exc)
            self._wake()
        finally:
            if src_shard is not None:
                # The peer is gone.  Wake a barrier wait that depends on it.
                self._lost_peers.add(src_shard)
                self._wake()

    def _wake(self, woken: bool = True) -> None:
        """Have a pending barrier wait look again (False: it timed out)."""
        waiter = self._barrier_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(woken)

    def _drain_barriers(self, peer: int) -> None:
        """Accept pending counted barriers whose ships have all arrived;
        NAK (once) the first that has not."""
        pending = self._pending_barriers.get(peer)
        while pending:
            round_no, ships, bound = pending[0]
            if self._recv_counts.get((peer, round_no), 0) < ships:
                if (peer, round_no) not in self._nakked:
                    self._nakked.add((peer, round_no))
                    self._count("ship.nak_sent")
                    asyncio.ensure_future(
                        self.client.send(("nak", self.shard, peer, round_no))
                    )
                return
            pending.popleft()
            self._recv_counts.pop((peer, round_no), None)
            # FIFO: a link's barriers arrive in round order.
            self._barrier_round[peer] = round_no
            log = self._ship_log[peer]
            for logged in [r for r in log if r < round_no]:
                del log[logged]
            if self._jumps:
                self._note_bound(round_no, bound)
            self._wake()

    def _note_bound(self, round_no: int, bound: int) -> None:
        bounds = self._next_event
        bounds[round_no] = min(bounds.get(round_no, wire.NO_EVENT), bound)

    # -- outbound faults --------------------------------------------------

    def _outbound_sink(self, peer: int, round_no: int) -> list[bytes] | None:
        """The link's cut buffer, activating a planned cut on first use."""
        plan = self._cut_plan.get(peer)
        if plan is not None and round_no >= plan[0]:
            del self._cut_plan[peer]
            buffer: list[bytes] = []
            self._cut_buffers[peer] = buffer
            self._count("fault.injected.cut")
            self._cut_tasks.append(
                asyncio.ensure_future(self._heal_cut(peer, plan[1]))
            )
            return buffer
        return self._cut_buffers.get(peer)

    async def _heal_cut(self, peer: int, seconds: float) -> None:
        await asyncio.sleep(seconds)
        # Pop before the first await below so concurrent writes go direct.
        buffer = self._cut_buffers.pop(peer, None)
        if not buffer or peer in self._broken_links:
            return
        writer = self._peer_writers.get(peer)
        if writer is None:
            return
        try:
            for frame in buffer:
                writer.write(frame)
            await writer.drain()
        except (ConnectionResetError, OSError):
            self._broken_links.add(peer)

    def _write_frames(
        self, peer: int, frames: list[bytes], round_no: int
    ) -> None:
        if not frames or peer in self._broken_links:
            return
        sink = self._outbound_sink(peer, round_no)
        if sink is not None:
            sink.extend(frames)
            return
        writer = self._peer_writers.get(peer)
        if writer is None:
            self._broken_links.add(peer)
            return
        try:
            writer.write(b"".join(frames))
        except (ConnectionResetError, OSError):
            self._broken_links.add(peer)

    async def _drain_peers(self) -> None:
        for peer, writer in list(self._peer_writers.items()):
            if peer in self._broken_links:
                continue
            try:
                await writer.drain()
            except (ConnectionResetError, OSError):
                self._broken_links.add(peer)

    def _ship_frame(self, ships: list[tuple], round_no: int) -> bytes:
        """A link's round as its SHIP frame, with the fault plan's ship
        faults applied to what is written (never to the log): a dropped
        ship is left out of the list, a duplicated one is in it twice,
        a corrupted one takes the frame that carries it."""
        corrupt = False
        if self._ship_faults:
            written = []
            for ship in ships:
                action = wire.match_ship_fault(
                    self._ship_faults, self._count, ship[0], ship[1], round_no
                )
                if action != "drop":
                    written.append(ship)
                if action == "duplicate":
                    written.append(ship)
                elif action == "corrupt":
                    corrupt = True
            ships = written
        frame = wire.encode_ships(round_no, ships)
        return wire.truncate_frame(frame) if corrupt else frame

    async def _ship_round(self, round_no: int) -> None:
        """Ship the round's outbox — one SHIP frame per peer link with
        traffic — then a counted barrier per link, in one write.

        A link's ships are logged *before* faults or link state apply —
        the log is the ground truth NAK resends draw from, and the
        barrier count states what the log holds, not what the wire saw.
        """
        shard_of = self.partition.shard_of
        groups: dict[int, list[tuple]] = {peer: [] for peer in self.peers}
        outbox = self.sim.drain_outbox()
        for ship in outbox:
            groups[shard_of[ship[1]]].append(ship)
        self._ships_out += len(outbox)
        # The next-event bound: the earliest queued event, or the earliest
        # delivery this round ships if that is sooner.
        queued = self.sim.scheduler.next_time()
        bound = min(
            wire.NO_EVENT if queued is None else queued,
            min((ship[3] for ship in outbox), default=wire.NO_EVENT),
        )
        if self._jumps:
            self._note_bound(round_no, bound)
        for peer, ships in groups.items():
            frames = []
            if ships:
                self._ship_log[peer][round_no] = ships
                frames.append(self._ship_frame(ships, round_no))
            frames.append(
                wire.encode_barrier(self.shard, round_no, len(ships), bound)
            )
            self._write_frames(peer, frames, round_no)
        await self._drain_peers()

    async def _resend_round(self, dst_shard: int, round_no: int) -> None:
        """Re-ship a logged round verbatim (NAK response).  No faults
        apply — their budgets were spent on the first pass — and the
        receiver's dedup absorbs whatever did arrive the first time."""
        ships = self._ship_log[dst_shard].get(round_no)
        if not ships:
            return
        self._count("ship.resent", len(ships))
        self._write_frames(
            dst_shard, [wire.encode_ships(round_no, ships)], round_no
        )
        await self._drain_peers()

    async def _await_barriers(self, round_no: int, report) -> None:
        """Block until every in-peer has announced ``round_no``.

        When that cannot happen on its own — a lagging peer died (its
        link closed) still owing this round, e.g. a short-counted barrier
        whose NAK it never answered — the worker reports itself parked
        (``("blocked", peer, round)`` with the first round the peer never
        announced) and keeps waiting — for the coordinator's ``stop``:
        crash recovery runs the trial again.
        """
        reported = False
        poll_until = time.perf_counter() + _BARRIER_POLL_S
        while True:
            if self._errors:
                raise SimulationError(
                    f"peer link failed: {self._errors[0]}"
                ) from self._errors[0]
            lagging = {
                peer for peer, r in self._barrier_round.items() if r < round_no
            }
            if not lagging:
                return
            lost = lagging & self._lost_peers
            if lost and not reported:
                reported = True
                peer = min(lost)
                pending = self._pending_barriers.get(peer)
                announced = (
                    pending[-1][0] if pending else self._barrier_round[peer]
                )
                await report(("blocked", peer, announced + 1))
                continue
            if not lost:
                reported = False
            if time.perf_counter() < poll_until:
                os.sched_yield()
                await asyncio.sleep(0)  # one pass of the loop: read the links
                continue
            loop = asyncio.get_running_loop()
            waiter = self._barrier_waiter = loop.create_future()
            timer = loop.call_later(self.timeout, self._wake, False)
            try:
                woken = await waiter
            finally:
                timer.cancel()
                self._barrier_waiter = None
            if not woken:
                raise SimulationError(
                    f"shard {self.shard} waited {self.timeout:.0f}s for "
                    f"barrier {round_no} from peers {sorted(lagging)}"
                )

    # -- the trial -------------------------------------------------------

    def _load_faults(self, faults: dict[str, Any] | None) -> None:
        if not faults:
            return
        for dst, start, seconds in faults.get("cuts", ()):
            self._cut_plan[dst] = (start, seconds)
        for action, src, dst, rounds, count in faults.get("ships", ()):
            self._ship_faults.append(
                {
                    "action": action,
                    "src": src,
                    "dst": dst,
                    "rounds": rounds,
                    "left": count,
                }
            )
        for round_no, seconds in faults.get("stalls", ()):
            self._stalls[round_no] = self._stalls.get(round_no, 0.0) + seconds

    async def run(self) -> None:
        """Serve the trial: dial the peers, scramble, ship round 0,
        report ``ready``, then run the granted rounds beside the control
        reader until ``stop``."""
        spec, sim, trace = self.spec, self.sim, self.trace
        self.worker._maybe_crash("peering")
        await self._connect_peers(spec["peers"])
        self.worker._trial_ready.set()
        injected, proc_len, chan_len = scramble_shard(
            sim, trace, spec["scramble_seed"], spec["fill_channels"]
        )
        driver_cfg = spec["driver"]
        driver: RequestDriver | None = None
        if driver_cfg is not None:
            driver = RequestDriver(sim, pids=self.shard_pids, **driver_cfg)
        # Round 0: the scramble's cross-shard injections ship before
        # anyone is granted a round — by the time a peer passes its
        # round-0 barrier wait, these are in its heap.
        await self._ship_round(0)
        await self.client.send(("ready", injected))
        rounds = asyncio.ensure_future(self._rounds(driver, self.obs))
        try:
            await self._serve_control(
                rounds,
                lambda: self._result_payload(
                    proc_len, chan_len, driver,
                    driver_cfg["tag"] if driver_cfg else None,
                ),
            )
        finally:
            rounds.cancel()
            await asyncio.gather(rounds, return_exceptions=True)

    async def _rounds(
        self, driver: RequestDriver | None, obs: ObsRecorder | None
    ) -> None:
        """Run the round grid as far as the grants allow.

        The worker reports ``(round, t, done_at, compute_s, park)`` —
        ``t`` being the tick its next round leaves from,
        :attr:`RoundGrid.reached` — when its driver first goes idle and
        every ``grid.every`` rounds, and — with ``park`` naming why —
        whenever it cannot go on: out of credit ``("limit", limit)``,
        waiting on a dead peer ``("blocked", peer, round)``, or finished
        ``("final", final)``.

        A round whose barrier shows quiet ticks ahead jumps past them.
        The worker parks on the plain target *before* the barrier wait
        (a worker blocked on a peer's barrier never reports, so the
        coordinator could not extend that peer's credit) and parks again
        after it only if the jump outran its credit.  Its processes stay
        dormant across rounds and are caught up once, at the final
        target — where the serial drain's own ``run_until`` settles them.
        """
        scheduler = self.sim.scheduler
        grid = self._grid
        compute_s = 0.0

        def done_at() -> int | None:
            return driver.done_at if driver is not None else None

        async def report(park: tuple | None) -> None:
            nonlocal compute_s
            grid.reported(done_at())
            spent, compute_s = compute_s, 0.0
            await self.client.send(
                ("report", grid.round, grid.reached, done_at(), spent, park)
            )

        #: The last round whose barrier wait is behind the worker.
        waited = 0
        while not grid.finished:
            self._granted.clear()
            target = grid.next_target()
            if target is None:
                await report(("limit", grid.limit))
                try:
                    await asyncio.wait_for(
                        self._granted.wait(), timeout=self.timeout
                    )
                except asyncio.TimeoutError:
                    raise SimulationError(
                        f"shard {self.shard} waited {self.timeout:.0f}s at "
                        f"tick {grid.t} for a grant beyond {grid.limit}"
                    ) from None
                continue
            round_no = grid.round + 1
            if waited < round_no:
                waited = round_no
                self.worker._maybe_crash("barrier", round_no)
                w0 = wall() if obs is not None else 0.0
                await self._await_barriers(round_no - 1, report)
                if obs is not None:
                    w1 = wall()
                    obs.spans.record(
                        "barrier_wait", "round", w0, w1,
                        args={"round": round_no - 1},
                    )
                    obs.metrics.observe("sync.barrier_wait_s", w1 - w0)
                if self._jumps:
                    grid.skip_to(self._next_event.pop(round_no - 1))
                    target = grid.next_target()
                    if target is None:
                        continue  # the jump outran the credit: park
            skipped = target - grid.t - grid.window
            if skipped > 0:
                self._rounds_jumped += 1
                self._ticks_jumped += skipped
            w0 = wall() if obs is not None else 0.0
            t0 = time.perf_counter()
            # The serial engine's loop: nothing else on this event loop
            # runs until the round is done.
            scheduler.run_until(target, keep_dormant=True)
            compute_s += time.perf_counter() - t0
            if obs is not None:
                obs.record_round(
                    "compute", w0, wall(), round=round_no, target=target
                )
            if self._errors:
                raise SimulationError(
                    f"peer link failed: {self._errors[0]}"
                ) from self._errors[0]
            self.worker._maybe_crash("round", round_no)
            await self._ship_round(round_no)
            stall = self._stalls.pop(round_no, None)
            if stall:
                self._count("fault.injected.stall")
                await asyncio.sleep(stall)
            grid.advance(target)
            if grid.report_due(done_at()):
                await report(None)
        scheduler.wake_all(grid.final, END_OF_TICK)
        await report(("final", grid.final))

    async def _serve_control(self, rounds: asyncio.Task, result_payload) -> None:
        """Serve the coordinator's CONTROL ops until ``stop``, beside the
        round loop — whose failure surfaces here."""
        recv = asyncio.ensure_future(self.worker.recv())
        try:
            while True:
                # A finished worker only waits to be asked for its result.
                idle = rounds.done()
                done, _ = await asyncio.wait(
                    {recv} if idle else {recv, rounds},
                    timeout=self.timeout if idle else None,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if rounds in done:
                    rounds.result()
                if recv not in done:
                    if not done:
                        raise SimulationError(
                            f"shard {self.shard} finished its rounds and "
                            f"heard nothing for {self.timeout:.0f}s"
                        )
                    continue
                message = recv.result()
                op = message[0]
                if op == "grant":
                    _, limit, final = message
                    self._grid.accept(limit, final)
                    self._granted.set()
                elif op == "resend":
                    _, nak_from, nak_round = message
                    await self._resend_round(nak_from, nak_round)
                elif op == "result":
                    await rounds
                    await self.client.send(("result", result_payload()))
                    self.result_shipped = True
                elif op == "stop":
                    return
                else:
                    raise SimulationError(
                        f"unknown coordinator op {op!r}"
                    )
                recv = asyncio.ensure_future(self.worker.recv())
        finally:
            recv.cancel()

    def _result_payload(self, proc_len, chan_len, driver, tag) -> dict[str, Any]:
        obs = self.obs
        if obs is not None:
            import resource  # not part of the boot closure

            obs.collect_wire()
            obs.metrics.inc("ship.messages_out", self._ships_out)
            obs.metrics.inc("sync.rounds_jumped", self._rounds_jumped)
            obs.metrics.inc("sync.ticks_jumped", self._ticks_jumped)
            for name, n in self._fault_counts.items():
                obs.metrics.inc(name, n)
            # Passive, and the only view of a pooled worker's memory:
            # a live child is not in the coordinator's RUSAGE_CHILDREN.
            obs.metrics.gauge_max(
                "process.max_rss_kb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            )
        payload = shard_result_payload(
            self.sim, self.trace, proc_len, chan_len,
            self.shard_pids, driver, tag, obs=obs,
        )
        if self._fault_counts:
            payload["fault_counts"] = dict(self._fault_counts)
        return payload

    def close(self) -> None:
        """Free the shard's engine and its trace — after ``idle``, so the
        deallocation overlaps the coordinator's merge."""
        self.sim.close()
        del self.sim, self.trace

    async def teardown(self) -> None:
        """Close this trial's links, both directions, and wait until
        their tasks are gone — the ``idle`` acknowledgement promises no
        frame of this trial is read after it."""
        for writer in self._peer_writers.values():
            writer.close()
        tasks = [*self._cut_tasks, *self.worker._pumps]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


async def _worker_async(
    shard: int,
    registry_host: str,
    registry_port: int,
    advertise_host: str,
    chaos: str | None,
) -> int:
    worker = _ClusterWorker(
        shard, registry_host, registry_port, advertise_host, chaos
    )
    try:
        await worker.run()
        return 0
    except _CoordinatorGone:
        return 0  # nobody left to serve, or to tell
    except Exception:  # noqa: BLE001 - forwarded to the coordinator
        import traceback

        tb = traceback.format_exc()
        try:
            await worker.client.send(("error", tb))
        except Exception:  # noqa: BLE001 - coordinator may be gone
            print(tb, file=sys.stderr)
        return 1
    finally:
        worker.client.close()


def run_cluster_worker(
    registry: str,
    shard: int,
    advertise_host: str = "127.0.0.1",
    chaos: str | None = None,
) -> int:
    """Entry point of ``repro cluster-worker``: serve one shard slot,
    trial after trial, until the coordinator says ``exit`` or goes away.

    ``registry`` is the coordinator's rendezvous address (``host:port``);
    ``advertise_host`` is the address *peers* should dial this worker on —
    set it to this machine's reachable address when launching on a remote
    host.  ``chaos`` is an injected crash-fault token (``phase`` or
    ``phase:round``) the coordinator threads through argv.  Returns a
    process exit code.
    """
    host, port = wire.parse_hostport(registry)
    if shard < 0:
        raise SimulationError(f"shard must be >= 0, got {shard}")
    return asyncio.run(_worker_async(shard, host, port, advertise_host, chaos))
