"""repro.net — the asyncio socket-backed runtime.

Runs the paper's protocol layers, unmodified, over real transports:

* :mod:`repro.net.engine` — :class:`AsyncSimulator`: one event loop, one
  scheduler, one transport per channel.  Over loopback the scheduler is
  the serial :class:`~repro.sim.scheduler.Scheduler` and the trial is
  ``run_until`` (bit-identity with ``engine=serial``).
* :mod:`repro.net.clock` — the wall-clock :class:`PacedClock` (tcp / udp
  best-effort pacing).
* :mod:`repro.net.transport` — the channel-medium registry: the
  in-process loopback, the localhost TCP fabric and the UDP datagram
  fabric, all under sender-owned channel accounting.
* :mod:`repro.net.wire` — the length-prefixed frame format.
* :mod:`repro.net.cluster` — the window-sync runtime (``engine=sharded``
  and ``engine=cluster``): per-shard worker interpreters (own OS
  processes, :mod:`repro.net.cluster_worker`, leased from the pool of
  :mod:`repro.net.coordinator`, which outlives the trial) behind the TCP
  fabric, coordinated through BARRIER frames.
* :mod:`repro.net.registry` — the rendezvous / port-registry service
  workers use to find each other's peer servers.
* :mod:`repro.net.monitors` — the per-row adapter of the specification
  automata of :mod:`repro.spec`.

See ``docs/async.md`` for the transport protocol and the determinism
argument.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.net.clock import PacedClock
    from repro.net.cluster import ClusterSimulator
    from repro.net.coordinator import close_pool
    from repro.net.cluster_worker import run_cluster_worker
    from repro.net.engine import DEFAULT_TICK_SECONDS, AsyncSimulator
    from repro.net.monitors import SpecMonitor
    from repro.net.registry import RegistryClient, RegistryServer
    from repro.net.transport import (
        LoopbackTransport,
        TcpFabric,
        TcpTransport,
        Transport,
        TransportKind,
        UdpFabric,
        UdpTransport,
        register_transport,
        resolve_transport,
        transport_names,
    )

__all__ = [
    "AsyncSimulator",
    "ClusterSimulator",
    "close_pool",
    "run_cluster_worker",
    "RegistryServer",
    "RegistryClient",
    "DEFAULT_TICK_SECONDS",
    "PacedClock",
    "Transport",
    "TransportKind",
    "register_transport",
    "resolve_transport",
    "transport_names",
    "LoopbackTransport",
    "TcpTransport",
    "TcpFabric",
    "UdpTransport",
    "UdpFabric",
    "SpecMonitor",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "clock": ("PacedClock",),
    "cluster": ("ClusterSimulator",),
    "coordinator": ("close_pool",),
    "cluster_worker": ("run_cluster_worker",),
    "engine": ("DEFAULT_TICK_SECONDS", "AsyncSimulator"),
    "monitors": ("SpecMonitor",),
    "registry": ("RegistryClient", "RegistryServer"),
    "transport": (
        "LoopbackTransport", "TcpFabric", "TcpTransport", "Transport",
        "TransportKind", "UdpFabric", "UdpTransport", "register_transport",
        "resolve_transport", "transport_names",
    ),
})
