"""Snap-stabilizing distributed reset on top of Protocol PIF.

When requested, the initiator broadcasts ``RESET``; every process runs its
local reset handler on receipt; at the decision every process is known to
have reset.  A classic PIF application (the paper cites Reset first among
the protocols solvable with PIF).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from repro.core.pif import PifClient, PifLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["ResetLayer", "RESET"]

RESET = "RESET"

ResetHandler = Callable[[], None]


class ResetLayer(Layer, PifClient):
    """Resets every process's application state in one confirmed wave."""

    STATE = ("request", "reset_count")

    def __init__(
        self,
        tag: str = "reset",
        handler: ResetHandler | None = None,
    ) -> None:
        super().__init__(tag)
        self.pif = PifLayer(f"{tag}/pif", client=self)
        self.handler: ResetHandler = handler if handler is not None else (lambda: None)
        self.request: RequestState = RequestState.DONE
        #: Number of resets this process performed (local observability).
        self.reset_count = 0

    def sublayers(self) -> Sequence[Layer]:
        return (self.pif,)

    # -- external interface ---------------------------------------------------------

    def request_reset(self) -> None:
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_reset

    # -- actions -----------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("R1", self._guard_start, self._action_start),
            Action("R2", self._guard_decide, self._action_decide),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        assert self.host is not None
        self.request = RequestState.IN
        self.host.emit(EventKind.START, tag=self.tag)
        self.pif.request_broadcast(RESET)

    def _guard_decide(self) -> bool:
        return (
            self.request is RequestState.IN
            and self.pif.request is RequestState.DONE
        )

    def _action_decide(self) -> None:
        assert self.host is not None
        # The initiator resets itself at the decision: by the Correctness
        # property every other process already reset during this wave.
        self._do_reset()
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag)

    def _do_reset(self) -> None:
        assert self.host is not None
        self.reset_count += 1
        self.handler()
        self.host.emit(EventKind.NOTE, tag=self.tag, what="reset")

    # -- PIF upcalls -----------------------------------------------------------------------

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        if payload == RESET:
            self._do_reset()
            return "RESET-OK"
        return None

    def broadcast_domain(self) -> Sequence[Any]:
        return (RESET,)

    def feedback_domain(self) -> Sequence[Any]:
        return ("RESET-OK",)

    # -- adversary interface ------------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        self.request = rng.choice(list(RequestState))
