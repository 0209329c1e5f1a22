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
only through ``BARRIER`` frames.  The process is one thread running one
``selectors`` loop: every wait — a barrier, a grant beyond the limit, a
stall fault, the idle time between trials — is one
:meth:`_ClusterWorker.poll`, which dispatches whatever is ready (peer
accepts, SHIP/BARRIER frames, CONTROL ops).  So a worker blocked on a
peer barrier still answers ``resend`` and ``stop`` (a crash recovery
ends the trial there and runs it again) — and notices at once when the
coordinator is gone: control EOF ends the process in every state (idle
between trials, blocked on a barrier, out of credit), so a killed
coordinator leaves no orphan.  No send blocks: a link's bytes wait in
its outbound buffer until the loop can flush them
(:class:`~repro.net.registry.Channel`).

The wait between trials is untimed; everything inside a trial keeps its
deadline.  What a trial accumulates lives on one :class:`_Trial` per
``spec`` and goes with it, peer links included (why they are not kept:
:class:`_ClusterWorker`).

A worker cannot REGISTER before this module is imported, so it imports
only what a worker runs: nothing of the coordinator
(``repro.net.coordinator``), the trial pipeline (``repro.engine``,
``repro.analysis``, ``repro.spec``), asyncio or the asyncio engine
(``repro.net.engine``, its clocks and transports).
"""

from __future__ import annotations

import os
import selectors
import socket
import sys
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.chaos.backoff import Backoff, retry
from repro.core.protocols import build_protocol
from repro.core.requests import RequestDriver
from repro.errors import SimulationError
from repro.net import wire
from repro.net.grant import RoundGrid
from repro.net.registry import Channel, RegistryClient, serve
from repro.obs.spans import wall
from repro.sim.partition import Partition
from repro.sim.runtime import Simulator
from repro.sim.scheduler import END_OF_TICK
from repro.sim.sharded import _KeyedTrace, scramble_shard, shard_result_payload

if TYPE_CHECKING:
    from repro.obs.recorder import ObsRecorder

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


class _Stopped(Exception):
    """The coordinator said ``stop``: unwinds the trial wherever it waits."""


class _ClusterWorker:
    """One worker interpreter: registers once, then serves trial after
    trial until the coordinator says ``exit`` or its control channel
    closes.

    What outlives a trial is only what the registration names — the
    control channel and the peer server's port.  Everything a trial
    touches lives on one fresh :class:`_Trial` per ``spec``; its peer
    links are dialled at ``spec`` and closed *before* the ``idle``
    acknowledgement — a peer's last-round SHIP/BARRIER can still be in
    flight when its receiver finishes, and on a kept link it would seed
    the next trial's barrier rounds.  The coordinator sends no ``spec``
    until every worker of the previous trial has acknowledged, so an
    inbound link that opens while no trial is up belongs to the next one:
    its frames wait in its buffer until that trial's state exists (a
    fast peer can dial and ship round 0 before this worker has read its
    spec, and a BARRIER taken before the trial seeds its barrier rounds
    would be overwritten — a lost barrier deadlocks the round loop).

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
        self.selector = selectors.DefaultSelector()
        self.listener: socket.socket | None = None
        self.control: Channel | None = None
        self.trial: _Trial | None = None
        #: CONTROL messages read while no trial is up (``spec``, ``exit``).
        self._between: deque = deque()
        #: Accepted peer links — all of the current trial, or opened
        #: while none is up and so of the next one (see above).
        self.inbound: list[Channel] = []
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

    def send(self, message: Any) -> None:
        """Queue one CONTROL message to the coordinator."""
        self.control.send(wire.encode_control(message))

    def poll(self, until: float | None) -> None:
        """The worker's one wait: a select until ``until`` (a
        ``perf_counter`` time; None: untimed — an idle pooled worker waits
        as long as its coordinator lives, and no longer) that dispatches
        whatever is ready, then heals the trial's due link cuts.  A
        ``stop`` raises :class:`_Stopped` here, control EOF
        :class:`_CoordinatorGone`."""
        trial = self.trial
        if trial is not None and trial.heals:
            first = min(when for when, _peer in trial.heals)
            until = first if until is None else min(until, first)
        serve(self.selector, until)
        if trial is not None:
            if trial.heals:
                trial.heal_cuts()
            if trial.stopped:
                raise _Stopped

    def _accept(self, _mask: int = 0) -> None:
        while True:
            try:
                sock, _addr = self.listener.accept()
            except BlockingIOError:
                return
            self.inbound.append(Channel(sock, self.selector, self._on_peer))

    def _on_peer(self, channel: Channel) -> None:
        channel.fill()
        if self.trial is not None:
            self.trial.serve_link(channel)

    def _on_control(self, channel: Channel) -> None:
        open_ = channel.fill()
        while (message := channel.message()) is not None:
            if self.trial is None:
                self._between.append(message)
            else:
                self.trial.control(message)
        if not open_:
            raise _CoordinatorGone

    def run(self) -> None:
        # The peer server opens before registration: the registry must
        # only ever name live, dialable endpoints.
        local = self.advertise_host in ("127.0.0.1", "localhost")
        self.listener = socket.create_server(("127.0.0.1" if local else "", 0), backlog=128)
        self.listener.setblocking(False)
        self.selector.register(self.listener, selectors.EVENT_READ, self._accept)
        port = self.listener.getsockname()[1]
        self._maybe_crash("rendezvous")
        self.client.register(self.shard, self.advertise_host, port, timeout=_REGISTER_TIMEOUT_S)
        self.control = Channel(self.client.sock, self.selector, self._on_control,
                               max_frame=wire.CONTROL_MAX_FRAME)
        self.control.inbuf = self.client.pending
        self._on_control(self.control)  # what arrived behind PEERS
        while True:
            while not self._between:
                self.poll(None)
            op, *args = self._between.popleft()
            if op == "exit":
                return
            if op != "spec":
                raise SimulationError(f"expected a trial spec, got {op!r}")
            trial = self.trial = _Trial(self, *args)
            if self.client.dial_retries:  # once, not once per trial
                trial._count("backoff.retries", self.client.dial_retries)
                self.client.dial_retries = 0
            try:
                trial.run()
            except _Stopped:
                pass
            finally:
                self.trial = None
                trial.teardown()
            if trial.result_shipped:
                self._crash_phase = None  # a finished trial's fault
            self.send(("idle",))
            trial.close()

    def close(self) -> None:
        self.client.close()
        if self.listener is not None:
            self.listener.close()


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
            # Only an observed trial pays for the recorder's import.
            from repro.obs.recorder import ObsRecorder

            # Coordinator lane is pid 0; worker lanes follow shard order.
            # The interpreter has served other trials: count this one's
            # frames from here.
            self.obs = ObsRecorder(pid=self.shard + 1, name=f"shard{self.shard}")
            self.obs.mark_wire_baseline()
        #: Outbound peer links, by peer shard.
        self._outbound: dict[int, Channel] = {}
        #: Latest barrier round seen per in-peer (-1 = none yet).
        self._barrier_round: dict[int, int] = dict.fromkeys(self.peers, -1)
        #: The round grid under the coordinator's latest grant, and how
        #: many grants have arrived.
        self._grid = RoundGrid(spec["window"], spec["horizon"], spec["drain"])
        self._grants = 0
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
        #: What the coordinator asked: ``stop`` (raised out of the next
        #: poll), ``result``; and whether it has the result — what
        #: disarms the worker's crash fault.
        self.stopped = False
        self.result_asked = False
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
        #: Active cut buffers (frames withheld, in order), and when each
        #: heals: ``(perf_counter time, peer)`` — a few entries, scanned
        #: on each poll.
        self._cut_buffers: dict[int, list[bytes]] = {}
        self.heals: list[tuple[float, int]] = []
        self._ship_faults: list[dict[str, Any]] = []
        self._stalls: dict[int, float] = {}
        self._fault_counts: dict[str, int] = {}
        self._load_faults(spec.get("faults"))

    def _count(self, name: str, n: int = 1) -> None:
        self._fault_counts[name] = self._fault_counts.get(name, 0) + n

    # -- fabric ----------------------------------------------------------

    def control(self, message: tuple) -> None:
        """Serve one CONTROL op, wherever the trial waits."""
        op = message[0]
        if op == "grant":
            _, limit, final = message
            self._grid.accept(limit, final)
            self._grants += 1
        elif op == "resend":
            _, nak_from, nak_round = message
            self._resend_round(nak_from, nak_round)
        elif op == "result":
            self.result_asked = True
        elif op == "stop":
            self.stopped = True
        else:
            raise SimulationError(f"unknown coordinator op {op!r}")

    def _connect_peers(self, peers: dict[int, tuple[str, int]]) -> None:
        for peer in self.peers:
            try:
                sock = retry(
                    lambda: socket.create_connection(peers[peer], timeout=2.0),
                    backoff=Backoff(initial=0.05, cap=0.5),
                    timeout=2.0,
                    describe=f"peer dial shard {self.shard}->{peer}",
                    on_retry=lambda _delay: self._count("backoff.retries"),
                )
                channel = self._outbound[peer] = Channel(sock, self.worker.selector)
                channel.send(wire.encode_hello(self.shard))
            except (SimulationError, OSError):
                # The peer died between registering and opening for
                # business (a peering-phase crash).  Mark the link broken
                # and carry on: the coordinator has noticed the death and
                # will stop this attempt and run the trial again.
                self._broken_links.add(peer)

    def serve_link(self, channel: Channel) -> None:
        """Take the whole frames one inbound peer link holds; at its EOF
        the peer is gone (it died — the trial is run again)."""
        try:
            while (frame := channel.frame()) is not None:
                kind, payload = frame
                src_shard = channel.owner
                if src_shard is None:
                    if kind != wire.HELLO:
                        raise wire.WireError("peer link did not open with a HELLO frame")
                    channel.owner = wire.decode_hello(payload)
                elif kind == wire.SHIP:
                    self._take_ships(src_shard, payload)
                elif kind == wire.BARRIER:
                    shard, *barrier = wire.decode_barrier(payload)
                    if shard != src_shard:
                        raise wire.WireError(
                            f"barrier names shard {shard} on shard {src_shard}'s link")
                    self._pending_barriers.setdefault(shard, deque()).append(barrier)
                    self._drain_barriers(shard)
                else:
                    raise wire.WireError(f"unexpected frame kind 0x{kind:02x} on a peer link")
        except Exception as exc:  # noqa: BLE001 - a broken link fails the trial
            raise SimulationError(f"peer link failed: {exc}") from exc
        if channel.eof:
            if channel.owner is not None:
                self._lost_peers.add(channel.owner)
            channel.close()

    def _take_ships(self, src_shard: int, payload: bytes) -> None:
        try:
            round_no, ships = wire.decode_ships(payload)
        except wire.WireError:
            # An injected corruption keeps the framing intact but kills
            # the pickle.  Count it and move on: the round's barrier
            # count will come up short and the NAK path re-ships the
            # round.
            self._count("ship.corrupt_received")
            return
        fresh = 0
        for src, dst, msg, when, entry_seq in ships:
            key = (src, dst, entry_seq)
            if key in self._seen:
                self._count("ship.duplicate_dropped")
                continue
            self._seen.add(key)
            # The window bound puts `when` beyond the current window;
            # post_at's past-time check stays active as a causality
            # assertion.
            self.sim.schedule_remote_arrival(src, dst, msg, when, entry_seq)
            fresh += 1
        if fresh:
            link_round = (src_shard, round_no)
            self._recv_counts[link_round] = self._recv_counts.get(link_round, 0) + fresh
            self._drain_barriers(src_shard)

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
                    self.worker.send(("nak", self.shard, peer, round_no))
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
            self.heals.append((time.perf_counter() + plan[1], peer))
            return buffer
        return self._cut_buffers.get(peer)

    def heal_cuts(self) -> None:
        """Write out, in order, every cut link's frames whose hold is over."""
        now = time.perf_counter()
        for when, peer in [heal for heal in self.heals if heal[0] <= now]:
            self.heals.remove((when, peer))
            buffer = self._cut_buffers.pop(peer)
            if buffer and peer not in self._broken_links:
                self._send_frames(peer, buffer)

    def _write_frames(self, peer: int, frames: list[bytes], round_no: int) -> None:
        if not frames or peer in self._broken_links:
            return
        sink = self._outbound_sink(peer, round_no)
        if sink is not None:
            sink.extend(frames)
            return
        self._send_frames(peer, frames)

    def _send_frames(self, peer: int, frames: list[bytes]) -> None:
        channel = self._outbound.get(peer)
        if channel is not None:
            channel.send(b"".join(frames))
        if channel is None or channel.failed:
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

    def _ship_round(self, round_no: int) -> None:
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

    def _resend_round(self, dst_shard: int, round_no: int) -> None:
        """Re-ship a logged round verbatim (NAK response).  No faults
        apply — their budgets were spent on the first pass — and the
        receiver's dedup absorbs whatever did arrive the first time."""
        ships = self._ship_log[dst_shard].get(round_no)
        if not ships:
            return
        self._count("ship.resent", len(ships))
        self._write_frames(dst_shard, [wire.encode_ships(round_no, ships)], round_no)

    def _await_barriers(self, round_no: int, report) -> None:
        """Block until every in-peer has announced ``round_no``.

        When that cannot happen on its own — a lagging peer died (its
        link closed) still owing this round, e.g. a short-counted barrier
        whose NAK it never answered — the worker reports itself parked
        (``("blocked", peer, round)`` with the first round the peer never
        announced) and keeps waiting — for the coordinator's ``stop``:
        crash recovery runs the trial again.
        """
        reported = False
        now = time.perf_counter()
        poll_until = now + _BARRIER_POLL_S
        deadline = now + self.timeout
        while True:
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
                announced = pending[-1][0] if pending else self._barrier_round[peer]
                report(("blocked", peer, announced + 1))
                continue
            if not lost:
                reported = False
            now = time.perf_counter()
            if now < poll_until:
                os.sched_yield()
                self.worker.poll(0.0)  # a zero-timeout select: read the links
            elif now < deadline:
                self.worker.poll(deadline)
            else:
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

    def run(self) -> None:
        """Serve the trial: dial the peers, scramble, ship round 0,
        report ``ready``, run the granted rounds, ship the result when
        asked, and wait for ``stop`` (which may also come sooner)."""
        spec, sim, trace = self.spec, self.sim, self.trace
        self.worker._maybe_crash("peering")
        self._connect_peers(spec["peers"])
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
        self._ship_round(0)
        self.worker.send(("ready", injected))
        # Links a fast peer opened before this trial's state existed.
        for channel in list(self.worker.inbound):
            self.serve_link(channel)
        self._rounds(driver, self.obs)
        # A finished worker only waits to be asked for its result.
        self._wait(lambda: self.result_asked, "after its rounds for `result`")
        self.worker.send(("result", self._result_payload(
            proc_len, chan_len, driver, driver_cfg["tag"] if driver_cfg else None,
        )))
        self.result_shipped = True
        self._wait(lambda: False, "after its result for `stop`")

    def _wait(self, done: Callable[[], bool], what: str) -> None:
        """Poll until ``done()``, for at most the worker timeout."""
        deadline = time.perf_counter() + self.timeout
        while not done():
            if time.perf_counter() >= deadline:
                raise SimulationError(
                    f"shard {self.shard} waited {self.timeout:.0f}s {what}"
                )
            self.worker.poll(deadline)

    def _rounds(
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

        def report(park: tuple | None) -> None:
            nonlocal compute_s
            grid.reported(done_at())
            spent, compute_s = compute_s, 0.0
            self.worker.send(("report", grid.round, grid.reached, done_at(), spent, park))

        #: The last round whose barrier wait is behind the worker.
        waited = 0
        while not grid.finished:
            target = grid.next_target()
            if target is None:
                report(("limit", grid.limit))
                grants = self._grants
                self._wait(
                    lambda: self._grants != grants,
                    f"at tick {grid.t} for a grant beyond {grid.limit}",
                )
                continue
            round_no = grid.round + 1
            if waited < round_no:
                waited = round_no
                self.worker._maybe_crash("barrier", round_no)
                w0 = wall() if obs is not None else 0.0
                self._await_barriers(round_no - 1, report)
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
            # The serial engine's loop: no I/O is served until the round
            # is done.
            scheduler.run_until(target, keep_dormant=True)
            compute_s += time.perf_counter() - t0
            if obs is not None:
                obs.record_round(
                    "compute", w0, wall(), round=round_no, target=target
                )
            self.worker._maybe_crash("round", round_no)
            self._ship_round(round_no)
            stall = self._stalls.pop(round_no, None)
            if stall:
                self._count("fault.injected.stall")
                until = time.perf_counter() + stall
                while time.perf_counter() < until:
                    self.worker.poll(until)
            grid.advance(target)
            if grid.report_due(done_at()):
                report(None)
        scheduler.wake_all(grid.final, END_OF_TICK)
        report(("final", grid.final))

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

    def teardown(self) -> None:
        """Close this trial's links, both directions — and any a peer of
        it opened that still waits in the listen backlog: the ``idle``
        acknowledgement promises no frame of this trial is read after it."""
        worker = self.worker
        worker._accept()
        for channel in [*self._outbound.values(), *worker.inbound]:
            channel.close()
        worker.inbound.clear()
        self.heals.clear()


def run_cluster_worker(
    registry: str, shard: int, advertise_host: str = "127.0.0.1", chaos: str | None = None
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
    worker = _ClusterWorker(shard, host, port, advertise_host, chaos)
    try:
        worker.run()
        return 0
    except _CoordinatorGone:
        return 0  # nobody left to serve, or to tell
    except Exception:  # noqa: BLE001 - forwarded to the coordinator
        import traceback

        tb = traceback.format_exc()
        try:
            worker.send(("error", tb))
            worker.control.drain(timeout=5.0)
        except Exception:  # noqa: BLE001 - coordinator may be gone
            print(tb, file=sys.stderr)
        return 1
    finally:
        worker.close()
