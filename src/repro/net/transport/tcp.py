"""The tcp medium: frames cross real localhost TCP sockets.

The message crosses a :class:`TcpFabric` connection as a length-prefixed
frame (:mod:`repro.net.wire`).  A per-channel writer coroutine ships
frames in admission order, each no earlier than its drawn delivery tick,
so per-tag FIFO survives on the wire; the receiving fabric dispatches
each frame at its destination process as it arrives.  Timing is
wall-clock best-effort — the specification check of the trace the run
produced carries the correctness claim.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.net import wire
from repro.sim.channel import ChannelBase, _Entry
from repro.net.transport.base import (
    Transport,
    TransportKind,
    register_transport,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.engine import AsyncSimulator

__all__ = ["TcpTransport", "TcpFabric"]


class TcpTransport(Transport):
    """Socket transport: frames cross a real localhost TCP connection."""

    def __init__(
        self, engine: "AsyncSimulator", channel: ChannelBase, fabric: "TcpFabric"
    ) -> None:
        super().__init__(engine, channel)
        self.fabric = fabric
        # The sender's send stream, bound once (as the serial engine's
        # compiled link does): the emulated link latency comes from the
        # same draws as the link's loss and corruption.
        self._randint = engine.send_rng(channel.src).randint
        self.frames_sent = 0
        self._outbox: asyncio.Queue[_Entry | None] = asyncio.Queue()
        engine._spawn(
            self._writer_loop(), name=f"ship-{channel.src}-{channel.dst}"
        )

    def send(self, entry: _Entry) -> None:
        # Anchor the latency draw at the *wall* tick: sends triggered by
        # frame arrivals can run while the drive loop is behind on clock
        # events, and a stale ``_now`` would propose delivery times in the
        # past (zero effective link latency — see PacedClock.touch).
        self.engine.scheduler.touch()
        self.engine.draw_delivery_time(self.channel, entry, self._randint)
        self._outbox.put_nowait(entry)

    async def _writer_loop(self) -> None:
        """Ship admitted entries in admission order, each no earlier than
        its drawn delivery tick (a cross-tag head-of-line wait can push a
        frame past its own tick); the slot frees when the frame is on the
        wire."""
        engine, clock = self.engine, self.engine.scheduler
        src, dst = self.channel.src, self.channel.dst
        writer = self.fabric.writer(src, dst)
        while True:
            entry = await self._outbox.get()
            if entry is None:
                return
            assert entry.delivery_time is not None
            delay = (entry.delivery_time - clock.wall_tick()) * clock.tick_seconds
            if delay > 0:
                await asyncio.sleep(delay)
            frame = wire.encode_message(entry.seq, entry.msg)
            # Chaos fault plans rewrite the frame list at this boundary:
            # [] (drop), [frame, frame] (duplicate), [truncated] (corrupt).
            # The slot release below is unconditional — a chaos-dropped
            # message behaves like channel loss, not like back-pressure.
            for out in wire.apply_ship_faults(
                engine._ship_faults, engine._count_fault, src, dst, frame
            ):
                writer.write(out)
                self.frames_sent += 1
                await writer.drain()
            # Sender-owned slot release, same guarded rule as the serial
            # engine's cross-shard path (ship time stands in for the
            # scheduled delivery time).
            engine._release_slot(self.channel, entry)

    def close(self) -> None:
        self._outbox.put_nowait(None)


class TcpFabric:
    """The socket mesh of one trial: one server per process, one connection
    per directed channel, all on the loopback interface.

    Connection setup happens before the trial clock starts; each accepted
    connection identifies its source via a HELLO frame, after which a pump
    coroutine decodes MESSAGE frames and hands them to the engine, which
    dispatches each at its destination process where it lands.
    """

    def __init__(self, engine: "AsyncSimulator") -> None:
        self.engine = engine
        self.ports: dict[int, int] = {}
        self._servers: list[asyncio.Server] = []
        self._writers: dict[tuple[int, int], asyncio.StreamWriter] = {}
        self._pumps: list[asyncio.Task] = []

    async def start(self) -> None:
        for pid in self.engine.hosts:
            server = await asyncio.start_server(
                partial(self._accept, pid), host="127.0.0.1", port=0
            )
            self._servers.append(server)
            self.ports[pid] = server.sockets[0].getsockname()[1]
        for src in self.engine.hosts:
            for dst in self.engine.network.peers_of(src):
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", self.ports[dst]
                )
                writer.write(wire.encode_hello(src))
                await writer.drain()
                self._writers[(src, dst)] = writer

    def writer(self, src: int, dst: int) -> asyncio.StreamWriter:
        try:
            return self._writers[(src, dst)]
        except KeyError:
            raise SimulationError(
                f"no connection for channel {src}->{dst} (not a topology edge?)"
            ) from None

    async def _accept(
        self, dst: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._pumps.append(task)
        # Receiver-side fault tolerance is armed only when a fault plan is
        # active: a corrupt or duplicate frame on a fault-free run is a
        # real protocol violation and must still fail the trial loudly.
        tolerant = self.engine._faults_active
        seen: set[int] = set()
        try:
            kind, payload = await wire.read_frame(reader)
            if kind != wire.HELLO:
                raise wire.WireError("connection did not open with a HELLO frame")
            src = wire.decode_hello(payload)
            while True:
                kind, payload = await wire.read_frame(reader)
                if kind != wire.MESSAGE:
                    raise wire.WireError(f"unexpected frame kind 0x{kind:02x}")
                try:
                    seq, msg = wire.decode_message(payload)
                except wire.WireError:
                    if not tolerant:
                        raise
                    self.engine._count_fault("ship.corrupt_received")
                    continue
                if tolerant:
                    # seq is the channel admission sequence — unique per
                    # connection, so a repeat can only be a chaos duplicate.
                    if seq in seen:
                        self.engine._count_fault("ship.duplicate_dropped")
                        continue
                    seen.add(seq)
                self.engine._socket_arrival(src, dst, msg, seq)
        except (asyncio.IncompleteReadError, ConnectionResetError, asyncio.CancelledError):
            return  # peer closed or trial teardown
        except Exception as exc:  # noqa: BLE001 - any other pump death must
            # reach the error sink: the drive loop's stop predicate watches
            # it, so the trial fails at the next event instead of idling
            # out the wall-clock horizon with a silently dead channel.
            self.engine._net_error(exc)
        finally:
            writer.close()

    async def close(self) -> None:
        for writer in self._writers.values():
            writer.close()
        for pump in self._pumps:
            pump.cancel()
        if self._pumps:
            await asyncio.gather(*self._pumps, return_exceptions=True)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        # asyncio's stream objects point at each other and, through the
        # servers' accept callbacks, at this fabric: left to the collector,
        # so is the fabric.  It lets go of the engine instead.
        del self.engine


def _tcp_channel(engine: "AsyncSimulator", channel: ChannelBase) -> TcpTransport:
    return TcpTransport(engine, channel, engine.require_fabric())


register_transport(TransportKind(
    name="tcp",
    deterministic=False,
    paced=True,
    frame_boundary=True,
    channel_factory=_tcp_channel,
    fabric_factory=TcpFabric,
    summary="real localhost TCP sockets, wall-clock best-effort",
))
