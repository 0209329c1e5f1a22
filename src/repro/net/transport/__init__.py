"""Channel transports for the async engine, one module per medium.

Built-in media — ``loopback`` (deterministic, bit-identical to serial),
``tcp`` (real localhost sockets, wall-clock best-effort) and ``udp``
(loopback datagrams, the real network as the adversary) — are listed in
:data:`repro.net.transport.base.BUILTIN` and imported when first
resolved, so a loopback trial never loads the socket fabrics.
Third-party media register the same way the built-ins do — a leaf module
calling :func:`register_transport`; nothing in the engine, runner or CLI
names a medium.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.net.transport.base import (
    Transport,
    TransportKind,
    register_transport,
    resolve_transport,
    transport_names,
)

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.net.transport.loopback import LoopbackTransport
    from repro.net.transport.tcp import TcpFabric, TcpTransport
    from repro.net.transport.udp import UdpFabric, UdpTransport

__all__ = [
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
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "loopback": ("LoopbackTransport",),
    "tcp": ("TcpFabric", "TcpTransport"),
    "udp": ("UdpFabric", "UdpTransport"),
})
