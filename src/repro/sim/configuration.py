"""Configurations (Definitions 2–4) and manual mode's transition relation.

A *configuration* is the product of the process states and the channel
contents; its process part, :attr:`Configuration.states`, is Definition 2's
abstract configuration and :meth:`Configuration.projection` Definition 3's
state-projection (Definition 4's sequence-projection maps it over captures).
:meth:`Configuration.key` is its hashable canonical key.  In manual mode
(``Simulator(auto=False)``) :func:`successors` lists the :class:`Choice`\\ s
open in the current configuration and :func:`step` takes one: Theorem 1's
replay runs on them, and so can a search over configurations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.channel import TaggedMessage
    from repro.sim.runtime import Simulator

__all__ = ["Choice", "Configuration", "capture", "restore", "step", "successors"]

#: One process's local state: layer tag -> variable name -> value.
ProcessState = dict[str, dict[str, Any]]


def _freeze(value: Any) -> Any:
    """``value`` made hashable: dicts become sorted item tuples."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _message_key(msg: "TaggedMessage") -> tuple:
    names = getattr(type(msg), "__slots__", None) or vars(msg)
    return (type(msg).__name__,) + tuple(
        _freeze(getattr(msg, name)) for name in names if name != "debug_wave"
    )


@dataclass(frozen=True)
class Configuration:
    """A full configuration: process states plus channel contents."""

    states: dict[int, ProcessState]
    channels: dict[tuple[int, int], tuple["TaggedMessage", ...]] = field(
        default_factory=dict
    )
    #: pid -> ticks left of a busy process's durational critical section
    #: (manual mode never advances time: such a process stays busy).
    busy: dict[int, int] = field(default_factory=dict)

    def projection(self, pid: int) -> ProcessState:
        """Definition 3: the state-projection on ``pid``."""
        try:
            return self.states[pid]
        except KeyError:
            raise ConfigurationError(f"no state for process {pid}") from None

    def key(self) -> tuple:
        """A hashable canonical key: equal iff the configurations are.

        Every process state, deep-frozen, by pid; the in-flight messages
        per ``(src, dst, tag)`` as a FIFO tuple — delivery order and
        capacity are per tag, so the interleaving of tags within a channel
        is not state; then the busy processes.  A message enters without
        its verification-only ``debug_wave``: a restored process does not
        restore its wave counter, and that counter is unbounded.
        """
        fifos: dict[tuple[int, int, str], list[tuple]] = {}
        for (src, dst), msgs in self.channels.items():
            for msg in msgs:
                fifos.setdefault((src, dst, msg.tag), []).append(_message_key(msg))
        return (
            tuple((pid, _freeze(state)) for pid, state in sorted(self.states.items())),
            tuple((where, tuple(msgs)) for where, msgs in sorted(fifos.items())),
            tuple(sorted(self.busy.items())),
        )


def capture(sim: "Simulator") -> Configuration:
    """Snapshot the simulator's global state as a :class:`Configuration`."""
    return Configuration(
        states=copy.deepcopy(sim.snapshot_states()),
        channels=sim.channel_contents(),
        busy={pid: host.busy_until - sim.now
              for pid, host in sim.hosts.items() if host.busy},
    )


def restore(sim: "Simulator", config: Configuration) -> None:
    """Force the simulator into ``config``.

    Process states are restored layer by layer, each process busy as
    ``config`` says (pending timers are not part of a configuration);
    channels are cleared and re-populated with the configuration's messages
    (deliveries are scheduled in auto mode).  Capacity bounds are enforced:
    restoring a configuration whose channels overflow a bounded channel
    raises, mirroring the paper's observation that such configurations
    simply do not exist in the bounded-capacity model.
    """
    for pid, state in config.states.items():
        host = sim.host(pid)
        host.restore(copy.deepcopy(state))
        host.busy_until = sim.now + config.busy[pid] if pid in config.busy else -1
    sim.network.clear_channels()
    for (src, dst), msgs in config.channels.items():
        for msg in msgs:
            sim.inject(src, dst, msg)


@dataclass(frozen=True)
class Choice:
    """One manual-mode transition: ``activate`` process ``pid``, or
    ``deliver`` / ``lose`` the oldest ``tag`` message on ``src -> pid``."""

    kind: str
    pid: int
    src: int | None = None
    tag: str | None = None

    @classmethod
    def activate(cls, pid: int) -> "Choice":
        return cls("activate", pid)

    @classmethod
    def deliver(cls, src: int, dst: int, tag: str) -> "Choice":
        return cls("deliver", dst, src, tag)

    @classmethod
    def lose(cls, src: int, dst: int, tag: str) -> "Choice":
        return cls("lose", dst, src, tag)


def successors(sim: "Simulator") -> list[Choice]:
    """Every choice open in ``sim``'s configuration, in a canonical order.

    An ``activate`` for each process that is not busy (an activation with
    nothing enabled is a stutter step), then a ``deliver`` and a ``lose``
    for each ``(src, dst, tag)`` with a message in flight.
    """
    heads = sorted(
        (channel.src, channel.dst, tag) for channel in sim.network.channels()
        for tag, occupancy in channel._occupancy.items() if occupancy
    )
    return (
        [Choice.activate(pid) for pid, host in sorted(sim.hosts.items())
         if not host.busy]
        + [Choice.deliver(*head) for head in heads]
        + [Choice.lose(*head) for head in heads]
    )


def step(sim: "Simulator", choice: Choice) -> None:
    """Take ``choice`` in ``sim``.

    Deterministic on a loss-free simulator only: a send still draws its
    loss from the sender's ``"send"`` stream, which no configuration holds.
    """
    if choice.kind == "activate":
        sim.activate(choice.pid)
    elif choice.kind == "deliver":
        sim.step_deliver(choice.src, choice.pid, tag=choice.tag)
    else:
        channel = sim.network.channel(choice.src, choice.pid)
        for entry in channel.entries():
            if entry.msg.tag == choice.tag:
                channel.remove(entry)
                sim.stats.dropped_loss += 1
                return
