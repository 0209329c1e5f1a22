"""Barrier / phase synchronization on top of Protocol PIF.

Every process participating in barrier ``k`` broadcasts ``(BAR, k)``;
a process crosses the barrier once (a) its own wave decided — so everyone
saw it reach ``k`` — and (b) it observed every peer at phase ``>= k``
(via the peers' broadcasts or their feedback).  Related to the
neighborhood-synchronizer line of snap-stabilizing work the paper cites.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.core.pif import PifClient, PifLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["BarrierLayer", "BAR"]

BAR = "BAR"


class BarrierLayer(Layer, PifClient):
    """All-to-all phase barrier built from per-process PIF waves."""

    STATE = ("request", "phase", "peer_phase")

    def __init__(self, tag: str = "bar") -> None:
        super().__init__(tag)
        self.pif = PifLayer(f"{tag}/pif", client=self)
        self.request: RequestState = RequestState.DONE
        #: Number of barriers this process has crossed.
        self.phase = 0
        #: Highest phase observed per peer.
        self.peer_phase: dict[int, int] = {}

    def sublayers(self) -> Sequence[Layer]:
        return (self.pif,)

    def on_attach(self) -> None:
        assert self.host is not None
        for q in self.host.others:
            self.peer_phase.setdefault(q, 0)

    # -- external interface ---------------------------------------------------------

    def request_barrier(self) -> None:
        """Arrive at the next barrier; ``request`` turns Done when crossed."""
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_barrier

    # -- actions -----------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("B1", self._guard_start, self._action_start),
            Action("B2", self._guard_cross, self._action_cross),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        assert self.host is not None
        self.request = RequestState.IN
        self.host.emit(EventKind.START, tag=self.tag, phase=self.phase + 1)
        self.pif.request_broadcast((BAR, self.phase + 1))

    def _guard_cross(self) -> bool:
        assert self.host is not None
        return (
            self.request is RequestState.IN
            and self.pif.request is RequestState.DONE
            and all(self.peer_phase[q] >= self.phase + 1 for q in self.host.others)
        )

    def _action_cross(self) -> None:
        assert self.host is not None
        self.phase += 1
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag, phase=self.phase)

    # -- PIF upcalls ----------------------------------------------------------------------

    def _observe(self, sender: int, phase: Any) -> None:
        if isinstance(phase, int):
            self.peer_phase[sender] = max(self.peer_phase.get(sender, 0), phase)

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == BAR:
            self._observe(sender, payload[1])
            # Feed back our own arrival so laggards' observations converge.
            own = self.phase + 1 if self.request is RequestState.IN else self.phase
            return (BAR, own)
        return None

    def on_feedback(self, sender: int, payload: Any) -> None:
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == BAR:
            self._observe(sender, payload[1])

    def broadcast_domain(self) -> Sequence[Any]:
        return ((BAR, 1), (BAR, 2))

    def feedback_domain(self) -> Sequence[Any]:
        return ((BAR, 0), (BAR, 1))

    # -- adversary interface --------------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self.phase = rng.randint(0, 3)
        for q in self.host.others:
            self.peer_phase[q] = rng.randint(0, 3)
