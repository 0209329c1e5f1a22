"""The loopback medium: in-process delivery through the engine's scheduler.

The message never leaves the process: its delivery is posted to the
engine's scheduler under the canonical delivery key, exactly as the
serial engine schedules it (same stream, same draw, same FIFO clamp,
same key) — the transport half of the loopback bit-identity guarantee,
and the deterministic exercise of the per-channel transport hook every
medium goes through.
"""

from __future__ import annotations

from repro.sim.channel import _Entry
from repro.sim.runtime import Simulator
from repro.net.transport.base import (
    Transport,
    TransportKind,
    register_transport,
)

__all__ = ["LoopbackTransport"]


class LoopbackTransport(Transport):
    """In-process transport: a delivery is a scheduler event."""

    def send(self, entry: _Entry) -> None:
        # Delegate to the serial engine's scheduling — the latency draw,
        # FIFO clamp and canonical delivery key are determinism-critical
        # and must stay single-sourced (the explicit base-class call is
        # what breaks the override recursion; every pid is hosted here, so
        # the cross-shard branch is dead).
        Simulator._schedule_delivery(self.engine, self.channel, entry)


register_transport(TransportKind(
    name="loopback",
    deterministic=True,
    paced=False,
    frame_boundary=False,
    channel_factory=LoopbackTransport,
    summary="in-process scheduler events, bit-identical to serial",
))
