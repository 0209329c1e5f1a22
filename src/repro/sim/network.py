"""Topology-driven network: channels plus local channel numbering.

Historically this module hardcoded the paper's fully-connected system
(Section 2: every process numbers its incident channels ``1 .. n-1``).  It
is now driven by a :class:`~repro.sim.topology.Topology`: :class:`Network`
owns one unidirectional channel per *adjacent* ordered pair and exposes the
local numbering maps the protocols consume (ME's ``Value`` variable ranges
over local channel numbers ``1 .. deg(p)``).

Channels are materialized lazily on first use — a wave touching only one
neighbourhood allocates only those channels, which keeps large-n simulator
construction O(n) instead of O(n^2).  Passing a plain pid sequence keeps the
historical behaviour (a :class:`~repro.sim.topology.Complete` topology).

The default channel factory (a bounded channel) sizes each
channel from the topology's per-edge capacity map
(:meth:`~repro.sim.topology.Topology.edge_capacity`) when one exists,
falling back to the uniform capacity otherwise — so a
:class:`~repro.sim.topology.Weighted` topology can give individual links
their own slot budgets without touching the factory.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.channel import BoundedChannel, ChannelBase
from repro.sim.topology import Complete, Topology

__all__ = ["Network"]


class Network:
    """Channels and channel numbering over a pluggable topology."""

    def __init__(
        self,
        topology: Topology | Sequence[int],
        channel_factory: Callable[[int, int], ChannelBase] | None = None,
        capacity: int = 1,
    ) -> None:
        """``channel_factory`` builds the channel ``src -> dst``; None
        means bounded channels of ``capacity`` slots, or of the edge's
        own capacity where the topology carries one (weighted maps win;
        ``edge_capacity`` is None on unweighted edges, and ``Weighted``
        rejects capacities below 1)."""
        if not isinstance(topology, Topology):
            topology = Complete(topology)
        self.topology: Topology = topology
        self.pids: tuple[int, ...] = topology.pids
        if channel_factory is None:
            def bounded(src: int, dst: int) -> ChannelBase:
                return BoundedChannel(
                    src, dst,
                    capacity=topology.edge_capacity(src, dst) or capacity,
                )

            channel_factory = bounded
        self._channel_factory = channel_factory
        self._channels: dict[tuple[int, int], ChannelBase] = {}

    # -- factories ---------------------------------------------------------

    # -- topology ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.pids)

    def peers_of(self, pid: int) -> tuple[int, ...]:
        """Neighbour ids, in local channel-number order."""
        return self.topology.neighbors(pid)

    def degree(self, pid: int) -> int:
        return self.topology.degree(pid)

    def chan_num(self, pid: int, peer: int) -> int:
        """The local channel number (``1..deg(pid)``) of ``peer`` at ``pid``."""
        return self.topology.chan_num(pid, peer)

    def peer_by_num(self, pid: int, num: int) -> int:
        """Inverse of :meth:`chan_num`."""
        return self.topology.peer_by_num(pid, num)

    # -- channels ----------------------------------------------------------

    def channel(self, src: int, dst: int) -> ChannelBase:
        """The unidirectional channel ``src -> dst`` (created on first use)."""
        channel = self._channels.get((src, dst))
        if channel is None:
            if not self.topology.adjacent(src, dst):
                raise SimulationError(f"no channel {src}->{dst}")
            channel = self._channel_factory(src, dst)
            self._channels[(src, dst)] = channel
        return channel

    def channels(self) -> Iterable[ChannelBase]:
        """Every channel materialized so far (others are empty by definition)."""
        return self._channels.values()

    def channels_of(self, pid: int) -> list[ChannelBase]:
        """Every channel from or to ``pid`` (Property 1 talks about these)."""
        result = []
        for q in self.topology.neighbors(pid):
            result.append(self.channel(pid, q))
        for q in self.topology.neighbors(pid):
            result.append(self.channel(q, pid))
        return result

    def in_flight(self) -> int:
        """Total messages currently in transit anywhere."""
        return sum(len(c) for c in self._channels.values())

    def clear_channels(self) -> int:
        """Empty every channel; returns the number of dropped messages."""
        return sum(len(c.clear()) for c in self._channels.values())
