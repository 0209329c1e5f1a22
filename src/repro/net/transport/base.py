"""The transport plugin surface: :class:`Transport` and its registry.

A *transport* carries one directed channel ``src -> dst``.  Whatever the
medium, the paper's Section 4 channel semantics are enforced on the
**sender's side** — the invariant inherited from sharded runs'
sender-owned accounting (:mod:`repro.sim.sharded`):

* *admission* — the sender's :class:`~repro.sim.channel.BoundedChannel`
  copy holds the capacity slots; a send into a full channel is dropped
  before it ever reaches the medium (``AsyncSimulator.transmit``, shared
  with the serial engine);
* *loss / corruption* — drawn from the channel's own random stream at the
  transport boundary, also before the medium;
* *latency* — drawn from the same stream at send time; the slot frees
  when the message leaves the channel, and busy receivers defer only the
  dispatch.

Each medium registers a :class:`TransportKind` — its name, its
determinism/pacing/framing contract, and the factories the engine calls —
so the :class:`~repro.net.engine.AsyncSimulator` (and the chaos plan
validator, and the async backend's capability set) never name a medium:
they read the declared flags.  Adding a transport is one leaf module that
calls :func:`register_transport` (a built-in one also gets its line in
:data:`BUILTIN`, so it is imported only when named); see
:mod:`repro.net.transport.udp` for the worked example.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SpecError
from repro.sim.channel import ChannelBase, _Entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.engine import AsyncSimulator

__all__ = [
    "BUILTIN",
    "Transport",
    "TransportKind",
    "register_transport",
    "resolve_transport",
    "transport_names",
]


class Transport(abc.ABC):
    """Delivery mechanism of one directed channel."""

    #: Frames this transport put on a real medium (repro.obs; loopback
    #: never frames anything, so the base value stands).
    frames_sent = 0

    def __init__(self, engine: "AsyncSimulator", channel: ChannelBase) -> None:
        self.engine = engine
        self.channel = channel

    @abc.abstractmethod
    def send(self, entry: _Entry) -> None:
        """Carry an admitted channel entry toward the destination."""

    def close(self) -> None:
        """Release transport resources (called at trial teardown)."""


@dataclass(frozen=True)
class TransportKind:
    """One registered channel medium and its contract.

    ``deterministic`` — a run reproduces the serial engine bit for bit.
    ``paced`` — events are paced against wall time (drives the engine's
    clock choice: a paced medium runs on the
    :class:`~repro.net.clock.PacedClock` and the ``tick`` axis applies,
    an unpaced one on the serial :class:`~repro.sim.scheduler.Scheduler`
    in virtual time).  ``frame_boundary`` — messages cross the
    medium as wire frames, giving chaos ship faults an injection point.
    ``channel_factory(engine, channel)`` builds the per-channel
    transport; ``fabric_factory(engine)``, when set, builds the
    trial-scoped medium (sockets, endpoints) the engine starts before
    tick 0 and closes at teardown.
    """

    name: str
    deterministic: bool
    paced: bool
    frame_boundary: bool
    channel_factory: Callable[["AsyncSimulator", ChannelBase], Transport]
    fabric_factory: Callable[["AsyncSimulator"], Any] | None = None
    summary: str = ""


#: Built-in media: name → the leaf module that registers it.  A module
#: is imported when its name is first resolved, never before — a
#: loopback trial loads no socket fabric.
BUILTIN: dict[str, str] = {
    "loopback": "repro.net.transport.loopback",
    "tcp": "repro.net.transport.tcp",
    "udp": "repro.net.transport.udp",
}

_KINDS: dict[str, TransportKind] = {}


def _load_builtin(name: str) -> None:
    if name in BUILTIN and name not in _KINDS:
        import_module(BUILTIN[name])


def register_transport(kind: TransportKind) -> TransportKind:
    """Register a channel medium under its name (flat namespace shared
    with the built-ins; a collision is an error — two media answering
    ``transport=x`` would make provenance ambiguous)."""
    if not kind.name:
        raise SpecError("transport declares no name", field="transport")
    _load_builtin(kind.name)  # no-op while that built-in itself registers
    if kind.name in _KINDS:
        raise SpecError(
            f"transport name {kind.name!r} is already registered",
            field="transport")
    _KINDS[kind.name] = kind
    return kind


def resolve_transport(name: str) -> TransportKind:
    """The medium answering ``transport=name``; :class:`SpecError` if
    none is registered under that name."""
    _load_builtin(name)
    try:
        return _KINDS[name]
    except KeyError:
        raise SpecError(
            f"unknown transport {name!r}; expected one of "
            f"{transport_names()}", field="transport") from None


def transport_names() -> tuple[str, ...]:
    """Built-in and registered transport names, sorted (CLI choices,
    capability sets); imports no medium."""
    return tuple(sorted(BUILTIN.keys() | _KINDS.keys()))
