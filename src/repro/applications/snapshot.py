"""Snap-stabilizing global snapshot on top of Protocol PIF.

When requested, the initiator broadcasts ``SNAP``; every process feeds back
its current application state; at the decision the initiator holds a
complete state map.  The snapshot is *consistent in the PIF sense*: every
collected state was read after the process received this wave's broadcast
and before the initiator decided (the paper's Correctness + Decision
properties).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from repro.core.pif import PifClient, PifLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["SnapshotLayer", "SNAP"]

SNAP = "SNAP"

StateProvider = Callable[[], Any]


class SnapshotLayer(Layer, PifClient):
    """Collects one state per process via a single PIF wave."""

    STATE = ("request", "collected", "snapshot_result")

    def __init__(
        self,
        tag: str = "snap",
        state_provider: StateProvider | None = None,
    ) -> None:
        super().__init__(tag)
        self.pif = PifLayer(f"{tag}/pif", client=self)
        self.state_provider: StateProvider = (
            state_provider if state_provider is not None else lambda: None
        )
        self.request: RequestState = RequestState.DONE
        self.collected: dict[int, Any] = {}
        #: The last completed snapshot: pid -> state (including self);
        #: empty before the first.
        self.snapshot_result: dict[int, Any] = {}

    def sublayers(self) -> Sequence[Layer]:
        return (self.pif,)

    # -- external interface ---------------------------------------------------------

    def request_snapshot(self) -> None:
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_snapshot

    # -- actions -----------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("S1", self._guard_start, self._action_start),
            Action("S2", self._guard_decide, self._action_decide),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        assert self.host is not None
        self.request = RequestState.IN
        self.collected = {}
        self.host.emit(EventKind.START, tag=self.tag)
        self.pif.request_broadcast(SNAP)

    def _guard_decide(self) -> bool:
        return (
            self.request is RequestState.IN
            and self.pif.request is RequestState.DONE
        )

    def _action_decide(self) -> None:
        assert self.host is not None
        result = dict(self.collected)
        result[self.host.pid] = self.state_provider()
        self.snapshot_result = result
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag, snapshot=result)

    # -- PIF upcalls -----------------------------------------------------------------------

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        if payload == SNAP:
            return ("STATE", self.state_provider())
        return None

    def on_feedback(self, sender: int, payload: Any) -> None:
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "STATE":
            self.collected[sender] = payload[1]

    def broadcast_domain(self) -> Sequence[Any]:
        return (SNAP,)

    def feedback_domain(self) -> Sequence[Any]:
        return (("STATE", 0), ("STATE", 1), ("STATE", "garbage"))

    # -- adversary interface ------------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self.collected = {
            q: rng.choice([0, 1, "garbage"])
            for q in self.host.others
            if rng.random() < 0.5
        }
        self.snapshot_result = {}
