"""Snap-stabilizing leader election on top of Protocol IDL.

The paper motivates PIF as the engine behind leader election (Section 4.1).
With IDs-Learning, election is one wave: when requested, the initiator
learns the minimum identity — the leader — and every peer's identity.
Because IDL is snap-stabilizing, any *requested* election returns the true
leader regardless of the initial configuration.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.idl import IdlLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["LeaderElectionLayer"]


class LeaderElectionLayer(Layer):
    """One-wave leader election: leader = process with the minimum identity."""

    STATE = ("request", "leader")

    def __init__(self, tag: str = "elect", ident: int | None = None) -> None:
        super().__init__(tag)
        self.idl = IdlLayer(f"{tag}/idl", ident=ident)
        self.request: RequestState = RequestState.DONE
        self.leader: int | None = None

    def sublayers(self) -> Sequence[Layer]:
        return (self.idl,)

    # -- external interface ------------------------------------------------------

    def request_election(self) -> None:
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_election

    @property
    def is_leader(self) -> bool:
        """True iff the last completed election elected this process."""
        return self.leader == self.idl.ident

    # -- actions -------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("E1", self._guard_start, self._action_start),
            Action("E2", self._guard_decide, self._action_decide),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        assert self.host is not None
        self.request = RequestState.IN
        self.host.emit(EventKind.START, tag=self.tag)
        self.idl.request_learn()

    def _guard_decide(self) -> bool:
        return (
            self.request is RequestState.IN
            and self.idl.request is RequestState.DONE
        )

    def _action_decide(self) -> None:
        assert self.host is not None
        self.leader = self.idl.min_id
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag, leader=self.leader)

    # -- adversary interface -------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self.leader = rng.choice(list(self.host.sim.pids) + [None, -1])
