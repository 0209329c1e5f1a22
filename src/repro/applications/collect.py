"""One PIF wave that collects a value from every process it reaches.

When requested, the initiator broadcasts ``COLLECT``; every process
answers ``("VAL", value())`` on receipt; at the decision the initiator
evaluates its own value and holds ``result``, one value per process of
its closed neighbourhood (every process on the paper's complete graph).
Each collected value was read after its process received this wave's
broadcast and before the initiator decided (Specification 1's Correctness
and Decision), so a requested collect is exact from any initial
configuration: ``collected`` is reset at the start and every peer's
feedback of the started wave overwrites whatever the window before it
wrote.

The PIF applications the paper names are this wave with a ``value``:
a snapshot reads the local state, a reset runs the local reset handler
(the peers on receipt, the initiator at the decision), and a fold over
``result`` is a ``functools.reduce`` at the call site.  Leader election is
Protocol IDL's ``min_id``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from repro.core.pif import PifClient, PifLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["COLLECT", "CollectLayer"]

#: The only broadcast payload of a collect wave.
COLLECT = "COLLECT"


class CollectLayer(Layer, PifClient):
    """Collects ``value()`` from every process in one confirmed wave."""

    STATE = ("request", "collected", "result")

    def __init__(
        self, tag: str = "collect", value: Callable[[], Any] = lambda: None
    ) -> None:
        super().__init__(tag)
        self.pif = PifLayer(f"{tag}/pif", client=self)
        self.value = value
        self.request: RequestState = RequestState.DONE
        self.collected: dict[int, Any] = {}
        #: The last decided collect: pid -> value (this process included);
        #: empty before the first.
        self.result: dict[int, Any] = {}

    def sublayers(self) -> Sequence[Layer]:
        return (self.pif,)

    # -- external interface -----------------------------------------------------

    def request_collect(self) -> None:
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_collect

    # -- actions ------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("C1", self._guard_start, self._action_start),
            Action("C2", self._guard_decide, self._action_decide),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        assert self.host is not None
        self.request = RequestState.IN
        self.collected = {}
        self.host.emit(EventKind.START, tag=self.tag)
        self.pif.request_broadcast(COLLECT)

    def _guard_decide(self) -> bool:
        return (
            self.request is RequestState.IN
            and self.pif.request is RequestState.DONE
        )

    def _action_decide(self) -> None:
        assert self.host is not None
        result = dict(self.collected)
        result[self.host.pid] = self.value()
        self.result = result
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag, result=result)

    # -- PIF upcalls ----------------------------------------------------------------

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        # Never None: an answer of None would leave F-Mes at its garbage.
        if payload == COLLECT:
            return ("VAL", self.value())
        return None

    def on_feedback(self, sender: int, payload: Any) -> None:
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "VAL":
            self.collected[sender] = payload[1]

    def broadcast_domain(self) -> Sequence[Any]:
        return (COLLECT,)

    def feedback_domain(self) -> Sequence[Any]:
        return (("VAL", -1), ("VAL", "garbage"))

    # -- adversary interface ----------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        garbage = [value for _, value in self.feedback_domain()]
        self.request = rng.choice(list(RequestState))
        self.collected = {
            q: rng.choice(garbage) for q in self.host.others if rng.random() < 0.5
        }
