"""The udp medium: datagrams on the loopback interface, the real network
as the adversary.

The paper's channel model — finite capacity, loss, reordering — is
UDP's native behaviour, so this transport lets the medium itself play
the adversary instead of emulating one: every admitted entry leaves as
one datagram (``HELLO frame + MESSAGE frame``, so each datagram is
self-identifying), and whatever the network drops, reorders or
duplicates is simply what the protocol layers must stabilize against.
Like ``tcp`` a udp run is wall-clock best-effort: the specification
check of the trace the run produced carries the correctness claim.
Sender-side semantics are unchanged — admission, the loss-model
draw and the latency draw still happen at the channel, so observed udp
loss *adds to* the modelled loss rather than replacing its accounting.

This module is also the registry's worked example: it registers purely
through :func:`~repro.net.transport.base.register_transport` — no
engine, runner or CLI edits — and docs/architecture.md walks through it
line by line.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.net import wire
from repro.sim.channel import ChannelBase, _Entry
from repro.net.transport.base import (
    Transport,
    TransportKind,
    register_transport,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.engine import AsyncSimulator

__all__ = ["UdpTransport", "UdpFabric"]


class UdpTransport(Transport):
    """Datagram transport: one datagram per admitted channel entry."""

    def __init__(
        self, engine: "AsyncSimulator", channel: ChannelBase, fabric: "UdpFabric"
    ) -> None:
        super().__init__(engine, channel)
        self.fabric = fabric
        self._randint = engine.send_rng(channel.src).randint
        self.frames_sent = 0
        self._outbox: asyncio.Queue[_Entry | None] = asyncio.Queue()
        engine._spawn(
            self._writer_loop(), name=f"dgram-{channel.src}-{channel.dst}"
        )

    def send(self, entry: _Entry) -> None:
        # Same anchoring as the tcp transport: the latency draw must read
        # the wall tick, not the drive loop's possibly-stale ``_now``.
        self.engine.scheduler.touch()
        self.engine.draw_delivery_time(self.channel, entry, self._randint)
        self._outbox.put_nowait(entry)

    async def _writer_loop(self) -> None:
        """Ship admitted entries in admission order, each no earlier than
        its drawn delivery tick.  The network may still reorder them —
        that is the point — and the slot frees when the datagram leaves,
        so an in-flight drop behaves like channel loss, never like
        back-pressure."""
        engine, clock = self.engine, self.engine.scheduler
        src, dst = self.channel.src, self.channel.dst
        while True:
            entry = await self._outbox.get()
            if entry is None:
                return
            assert entry.delivery_time is not None
            delay = (entry.delivery_time - clock.wall_tick()) * clock.tick_seconds
            if delay > 0:
                await asyncio.sleep(delay)
            frame = wire.encode_message(entry.seq, entry.msg)
            # Chaos ship faults rewrite the frame list here exactly as on
            # tcp: [] (drop), [frame, frame] (duplicate), [truncated].
            for out in wire.apply_ship_faults(
                engine._ship_faults, engine._count_fault, src, dst, frame
            ):
                self.fabric.send_datagram(src, dst, out)
                self.frames_sent += 1
            engine._release_slot(self.channel, entry)

    def close(self) -> None:
        self._outbox.put_nowait(None)


class _UdpEndpoint(asyncio.DatagramProtocol):
    """One pid's receive socket: hands every datagram to the fabric."""

    def __init__(self, fabric: "UdpFabric", pid: int) -> None:
        self.fabric = fabric
        self.pid = pid

    def datagram_received(self, data: bytes, addr) -> None:
        self.fabric._on_datagram(self.pid, data)

    def error_received(self, exc: Exception) -> None:
        self.fabric.engine._net_error(exc)


class UdpFabric:
    """The datagram mesh of one trial: one socket per process, no
    connections — every datagram carries its own HELLO frame, so the
    receiving endpoint can attribute it to a directed channel."""

    def __init__(self, engine: "AsyncSimulator") -> None:
        self.engine = engine
        self.ports: dict[int, int] = {}
        self._endpoints: dict[int, asyncio.DatagramTransport] = {}
        #: Channel-admission seqs already dispatched per directed channel:
        #: UDP may duplicate natively (and chaos faults do on purpose), and
        #: a replayed dispatch would double-deliver a protocol message.
        self._seen: dict[int, set[tuple[int, int]]] = {}
        self._counters: dict[str, int] = {}

    def _count(self, name: str) -> None:
        self._counters[name] = self._counters.get(name, 0) + 1

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        for pid in self.engine.hosts:
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda pid=pid: _UdpEndpoint(self, pid),
                local_addr=("127.0.0.1", 0),
            )
            self._endpoints[pid] = transport
            self.ports[pid] = transport.get_extra_info("sockname")[1]
            self._seen[pid] = set()

    def send_datagram(self, src: int, dst: int, message_frame: bytes) -> None:
        """One self-identifying datagram: HELLO(src) + MESSAGE frame."""
        self._count("udp.datagrams_sent")
        self._endpoints[src].sendto(
            wire.encode_hello(src) + message_frame,
            ("127.0.0.1", self.ports[dst]),
        )

    def _on_datagram(self, dst: int, data: bytes) -> None:
        self._count("udp.datagrams_received")
        tolerant = self.engine._faults_active
        try:
            kind, payload, rest = wire.split_frame(data)
            if kind != wire.HELLO:
                raise wire.WireError(
                    f"datagram did not open with a HELLO frame (0x{kind:02x})")
            src = wire.decode_hello(payload)
            kind, payload, rest = wire.split_frame(rest)
            if kind != wire.MESSAGE or rest:
                raise wire.WireError("datagram is not HELLO + one MESSAGE")
            seq, msg = wire.decode_message(payload)
        except wire.WireError:
            # The medium is the adversary: an undecodable datagram is a
            # corrupt arrival, counted and dropped — never a trial error.
            self._count("udp.undecodable_dropped")
            if tolerant:
                self.engine._count_fault("ship.corrupt_received")
            return
        if (src, seq) in self._seen[dst]:
            self._count("udp.duplicate_dropped")
            if tolerant:
                self.engine._count_fault("ship.duplicate_dropped")
            return
        self._seen[dst].add((src, seq))
        self.engine._socket_arrival(src, dst, msg, seq)

    def obs_stats(self) -> dict[str, int]:
        """Datagram counters for :meth:`AsyncSimulator.collect_obs`."""
        return dict(self._counters)

    async def close(self) -> None:
        for transport in self._endpoints.values():
            transport.close()


def _udp_channel(engine: "AsyncSimulator", channel: ChannelBase) -> UdpTransport:
    return UdpTransport(engine, channel, engine.require_fabric())


register_transport(TransportKind(
    name="udp",
    deterministic=False,
    paced=True,
    frame_boundary=True,
    channel_factory=_udp_channel,
    fabric_factory=UdpFabric,
    summary="loopback datagrams; the real network is the adversary",
))
