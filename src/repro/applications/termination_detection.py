"""Termination detection on top of Protocol PIF (two-wave stability test).

The detector repeatedly runs PIF waves that collect, from every process,
the triple ``(idle, sent, received)`` describing the observed application.
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

from repro.core.pif import PifClient, PifLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["ObservedComputation", "TerminationDetectorLayer", "PROBE"]

PROBE = "TD-PROBE"


@dataclass
class ObservedComputation:
    """The application-side counters the detector samples."""

    idle: bool = True
    sent: int = 0
    received: int = 0

    def sample(self) -> tuple[bool, int, int]:
        return (self.idle, self.sent, self.received)


class TerminationDetectorLayer(Layer, PifClient):
    """Announces termination after two identical all-idle collections."""

    STATE = ("request", "detecting", "terminated", "waves_used",
             "_collected", "_previous_round")

    def __init__(
        self,
        tag: str = "td",
        computation: ObservedComputation | None = None,
    ) -> None:
        super().__init__(tag)
        self.pif = PifLayer(f"{tag}/pif", client=self)
        self.computation = computation if computation is not None else ObservedComputation()
        self.request: RequestState = RequestState.DONE
        self.detecting = False
        self.terminated = False
        self.waves_used = 0
        self._collected: dict[int, tuple[bool, int, int]] = {}
        self._previous_round: tuple[int, int] | None = None  # (sent, received)

    def sublayers(self) -> Sequence[Layer]:
        return (self.pif,)

    # -- external interface ---------------------------------------------------------

    def request_detection(self) -> None:
        """Start probing; ``terminated`` turns True when detection concludes."""
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_detection

    # -- actions ----------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("D1", self._guard_start, self._action_start),
            Action("D2", self._guard_round_done, self._action_round_done),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        assert self.host is not None
        self.request = RequestState.IN
        self.detecting = True
        self.terminated = False
        self.waves_used = 0
        self._previous_round = None
        self.host.emit(EventKind.START, tag=self.tag)
        self._launch_wave()

    def _launch_wave(self) -> None:
        self._collected = {}
        self.waves_used += 1
        self.pif.request_broadcast(PROBE)

    def _guard_round_done(self) -> bool:
        return (
            self.detecting
            and self.request is RequestState.IN
            and self.pif.request is RequestState.DONE
        )

    def _action_round_done(self) -> None:
        assert self.host is not None
        samples = dict(self._collected)
        samples[self.host.pid] = self.computation.sample()
        all_idle = all(s[0] for s in samples.values())
        total_sent = sum(s[1] for s in samples.values())
        total_received = sum(s[2] for s in samples.values())
        stable = (
            all_idle
            and total_sent == total_received
            and self._previous_round == (total_sent, total_received)
        )
        if stable:
            self.terminated = True
            self.detecting = False
            self.request = RequestState.DONE
            self.host.emit(
                EventKind.DECIDE, tag=self.tag, waves=self.waves_used,
                sent=total_sent, received=total_received,
            )
            return
        self._previous_round = (
            (total_sent, total_received) if all_idle and total_sent == total_received
            else None
        )
        self._launch_wave()

    # -- PIF upcalls ----------------------------------------------------------------------

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        if payload == PROBE:
            return ("TD", self.computation.sample())
        return None

    def on_feedback(self, sender: int, payload: Any) -> None:
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "TD":
            sample = payload[1]
            if isinstance(sample, tuple) and len(sample) == 3:
                self._collected[sender] = sample

    def broadcast_domain(self) -> Sequence[Any]:
        return (PROBE,)

    def feedback_domain(self) -> Sequence[Any]:
        return (("TD", (True, 0, 0)), ("TD", (False, 1, 0)))

    # -- adversary interface --------------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        self.request = rng.choice(list(RequestState))
        self.detecting = rng.random() < 0.5
        self.terminated = rng.random() < 0.5
        self._previous_round = None
        self._collected = {}
