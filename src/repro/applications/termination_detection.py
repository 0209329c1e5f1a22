"""Termination detection over the collect wave (two-wave stability test).

The detector repeatedly runs collect waves whose value is the triple
``(idle, sent, received)`` describing the observed application.
Termination is announced when two *consecutive* waves both report every
process idle with globally matched and unchanged message counters — the
classic double-collect stability argument: the application cannot have been
active between two identical passive global snapshots.

The observed application is abstracted by an :class:`ObservedComputation`
(idle flag + counters); tests drive a synthetic diffusing computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.applications.collect import CollectLayer

__all__ = ["ObservedComputation", "TerminationDetectorLayer"]


@dataclass
class ObservedComputation:
    """The application-side counters the detector samples."""

    idle: bool = True
    sent: int = 0
    received: int = 0

    def sample(self) -> tuple[bool, int, int]:
        return (self.idle, self.sent, self.received)


class TerminationDetectorLayer(CollectLayer):
    """Announces termination after two identical all-idle collections."""

    STATE = CollectLayer.STATE + (
        "detecting", "terminated", "waves_used", "_previous_round")

    def __init__(
        self,
        tag: str = "td",
        computation: ObservedComputation | None = None,
    ) -> None:
        self.computation = computation if computation is not None else ObservedComputation()
        super().__init__(tag, value=self.computation.sample)
        self.detecting = False
        self.terminated = False
        self.waves_used = 0
        self._previous_round: tuple[int, int] | None = None  # (sent, received)

    # -- external interface ---------------------------------------------------------

    def request_detection(self) -> None:
        """Start probing; ``terminated`` turns True when detection concludes."""
        self.detecting = True
        self.terminated = False
        self.waves_used = 0
        self._previous_round = None
        self.request_collect()

    external_request = request_detection

    # -- one collect wave per round ----------------------------------------------------

    def _action_start(self) -> None:
        self.waves_used += 1
        super()._action_start()

    def _action_decide(self) -> None:
        super()._action_decide()
        if not self.detecting:
            return
        samples = self.result.values()
        all_idle = all(s[0] for s in samples)
        total_sent = sum(s[1] for s in samples)
        total_received = sum(s[2] for s in samples)
        quiet = all_idle and total_sent == total_received
        if quiet and self._previous_round == (total_sent, total_received):
            self.terminated = True
            self.detecting = False
            return
        self._previous_round = (total_sent, total_received) if quiet else None
        self.request_collect()

    # -- adversary interface: well-typed samples --------------------------------------

    def feedback_domain(self) -> Sequence[Any]:
        return (("VAL", (True, 0, 0)), ("VAL", (False, 1, 0)))

    def scramble(self, rng: random.Random) -> None:
        super().scramble(rng)
        self.detecting = rng.random() < 0.5
        self.terminated = rng.random() < 0.5
        self._previous_round = None
