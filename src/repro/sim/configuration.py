"""Configurations and projections (Definitions 2–4 of the paper).

A *configuration* is the product of the process states and the channel
contents.  An *abstract configuration* (Definition 2) drops the channels.
*State-projections* (Definition 3) restrict a configuration to one process;
*sequence-projections* (Definition 4) map a configuration sequence to the
sequence of one process's states.  These are exactly the notions Theorem 1's
construction manipulates, so they are first-class objects here.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.channel import TaggedMessage
    from repro.sim.runtime import Simulator

__all__ = [
    "AbstractConfiguration",
    "Configuration",
    "capture",
    "capture_abstract",
    "restore",
    "state_projection",
    "sequence_projection",
]

#: One process's local state: layer tag -> variable name -> value.
ProcessState = dict[str, dict[str, Any]]


@dataclass(frozen=True)
class AbstractConfiguration:
    """Definition 2: a configuration restricted to the process states."""

    states: dict[int, ProcessState]

    def projection(self, pid: int) -> ProcessState:
        """Definition 3: the state-projection on ``pid``."""
        try:
            return self.states[pid]
        except KeyError:
            raise ConfigurationError(f"no state for process {pid}") from None


@dataclass(frozen=True)
class Configuration:
    """A full configuration: process states plus channel contents."""

    states: dict[int, ProcessState]
    channels: dict[tuple[int, int], tuple["TaggedMessage", ...]] = field(
        default_factory=dict
    )

    def abstract(self) -> AbstractConfiguration:
        """Definition 2: drop the channel contents."""
        return AbstractConfiguration(states=copy.deepcopy(self.states))

    def projection(self, pid: int) -> ProcessState:
        """Definition 3 on the process part."""
        try:
            return self.states[pid]
        except KeyError:
            raise ConfigurationError(f"no state for process {pid}") from None

    def messages_in(self, src: int, dst: int) -> tuple["TaggedMessage", ...]:
        return self.channels.get((src, dst), ())

    def total_in_flight(self) -> int:
        return sum(len(msgs) for msgs in self.channels.values())


def capture(sim: "Simulator") -> Configuration:
    """Snapshot the simulator's global state as a :class:`Configuration`."""
    return Configuration(
        states=copy.deepcopy(sim.snapshot_states()),
        channels=sim.channel_contents(),
    )


def capture_abstract(sim: "Simulator") -> AbstractConfiguration:
    """Snapshot only the process states (Definition 2)."""
    return AbstractConfiguration(states=copy.deepcopy(sim.snapshot_states()))


def restore(sim: "Simulator", config: Configuration) -> None:
    """Force the simulator into ``config``.

    Process states are restored layer by layer; channels are cleared and
    re-populated with the configuration's messages (deliveries are scheduled
    in auto mode).  Capacity bounds are enforced: restoring a configuration
    whose channels overflow a bounded channel raises, mirroring the paper's
    observation that such configurations simply do not exist in the
    bounded-capacity model.
    """
    for pid, state in config.states.items():
        sim.host(pid).restore(copy.deepcopy(state))
    sim.network.clear_channels()
    for (src, dst), msgs in config.channels.items():
        for msg in msgs:
            sim.inject(src, dst, msg)


def state_projection(config: Configuration | AbstractConfiguration, pid: int) -> ProcessState:
    """Definition 3: φ_p(γ)."""
    return config.projection(pid)


def sequence_projection(
    configs: Sequence[Configuration | AbstractConfiguration], pid: int
) -> list[ProcessState]:
    """Definition 4: Φ_p(s) for a configuration sequence ``s``."""
    return [c.projection(pid) for c in configs]
