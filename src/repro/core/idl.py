"""Protocol IDL — Algorithm 2 of the paper (IDs-Learning).

A direct application of Protocol PIF: the initiator broadcasts the constant
payload ``IDL``; every process feeds back its identity; at decision time the
initiator knows every peer's ID (``ID-Tab``) and the minimum ID of the
system (``minID``).  Snap-stabilizing for Specification 2 (Theorem 3).

On a non-complete topology the wave spans the initiator's neighbourhood, so
``ID-Tab`` covers the neighbours and ``minID`` is the *closed neighbourhood*
minimum — the quantity ME's per-cluster arbitration consumes.  On the
paper's complete graph this is the global minimum, as in the paper.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.core.pif import PifClient, PifLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["IdlLayer", "IDL_PAYLOAD"]

#: The only broadcast payload of the IDL instance.
IDL_PAYLOAD = "IDL"


class IdlLayer(Layer, PifClient):
    """One instance of Protocol IDL (Algorithm 2)."""

    def __init__(
        self,
        tag: str,
        ident: int | None = None,
        max_state: int | None = None,
    ) -> None:
        super().__init__(tag)
        pif_kwargs = {} if max_state is None else {"max_state": max_state}
        self.pif = PifLayer(f"{tag}/pif", client=self, **pif_kwargs)
        self._ident = ident
        # Variables of Algorithm 2.
        self.request: RequestState = RequestState.DONE
        self.min_id: int = 0
        self.id_tab: dict[int, int] = {}

    # -- wiring ----------------------------------------------------------------

    def sublayers(self) -> Sequence[Layer]:
        return (self.pif,)

    def on_attach(self) -> None:
        assert self.host is not None
        if self._ident is None:
            self._ident = self.host.pid
        self.min_id = self._ident
        for q in self.host.others:
            self.id_tab.setdefault(q, 0)

    @property
    def ident(self) -> int:
        """This process's identity (defaults to its pid)."""
        assert self._ident is not None
        return self._ident

    # -- external interface -------------------------------------------------------

    def request_learn(self) -> None:
        """External request: learn all IDs and the minimum ID."""
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_learn

    # -- actions (Algorithm 2) -------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("A1", self._guard_a1, self._action_a1),
            Action("A2", self._guard_a2, self._action_a2),
        )

    def _guard_a1(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_a1(self) -> None:
        """A1 :: Request = Wait -> start; broadcast IDL via PIF."""
        assert self.host is not None
        self.request = RequestState.IN
        self.min_id = self.ident
        self.host.emit(EventKind.START, tag=self.tag)
        self.pif.request_broadcast(IDL_PAYLOAD)

    def _guard_a2(self) -> bool:
        return (
            self.request is RequestState.IN
            and self.pif.request is RequestState.DONE
        )

    def _action_a2(self) -> None:
        """A2 :: computation done -> decide."""
        assert self.host is not None
        self.request = RequestState.DONE
        self.host.emit(
            EventKind.DECIDE, tag=self.tag, min_id=self.min_id, id_tab=dict(self.id_tab)
        )

    # -- PIF upcalls (A3, A4) -----------------------------------------------------------

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        """A3 :: receive-brd⟨IDL⟩ from q -> feed back own identity."""
        if payload == IDL_PAYLOAD:
            return self.ident
        return None

    def on_feedback(self, sender: int, payload: Any) -> None:
        """A4 :: receive-fck⟨qID⟩ from q -> record it, update the minimum.

        Applies only inside a started computation (the embedded PIF is
        ``In``): Specification 1 guarantees a ``receive-fck`` only there,
        and between IDL's A1 and PIF's A1 a scrambled flag can complete
        one whose garbage the running ``min_id`` would keep.  Feedback
        payloads are identities (integers); anything else is
        initial-configuration garbage outside the instance's alphabet and is
        ignored.
        """
        if self.pif.request is RequestState.IN and isinstance(payload, int):
            self.id_tab[sender] = payload
            self.min_id = min(self.min_id, payload)

    # -- message alphabet (for the adversary) ----------------------------------------------

    def broadcast_domain(self) -> Sequence[Any]:
        return (IDL_PAYLOAD,)

    def feedback_domain(self) -> Sequence[Any]:
        assert self.host is not None
        return tuple(self.host.sim.pids)

    # -- adversary / configuration interface --------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        candidates = list(self.host.sim.pids) + [rng.randint(-10, 10**6)]
        self.min_id = rng.choice(candidates)
        for q in self.host.others:
            self.id_tab[q] = rng.choice(candidates)

    def snapshot(self) -> dict[str, Any]:
        return {
            "request": self.request,
            "min_id": self.min_id,
            "id_tab": dict(self.id_tab),
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.request = state["request"]
        self.min_id = state["min_id"]
        self.id_tab = dict(state["id_tab"])
