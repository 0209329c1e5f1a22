"""The paper's *naive* PIF attempt (Section 4.1) — a negative baseline.

The paper sketches the obvious implementation and explains why it is **not**
snap-stabilizing:

1. the broadcast (or a feedback) can be lost — the computation deadlocks;
2. the arbitrary initial configuration can hold a stale feedback the
   initiator mistakes for a genuine acknowledgment, or a stale broadcast
   that triggers an undesirable feedback.

This layer implements exactly that naive scheme (single send, no handshake
flags) so the ablation experiment E8c can measure both failure modes against
Protocol PIF.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.pif import PifClient
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["NaiveMessage", "NaivePifLayer"]


@dataclass(frozen=True)
class NaiveMessage:
    """Broadcast or feedback frame of the naive scheme."""

    tag: str
    kind: str  # "brd" | "fck"
    payload: Any
    debug_wave: tuple[int, int] | None = None


class NaivePifLayer(Layer):
    """Broadcast once, count feedbacks, decide at n-1 — no handshake."""

    STATE = ("request", "b_mes", "acked")

    def __init__(self, tag: str, client: PifClient | None = None) -> None:
        super().__init__(tag)
        self.client = client if client is not None else PifClient()
        self.request: RequestState = RequestState.DONE
        self.b_mes: Any = None
        self.acked: dict[int, bool] = {}
        self.wave_seq = 0

    def on_attach(self) -> None:
        assert self.host is not None
        for q in self.host.others:
            self.acked.setdefault(q, False)

    # -- external interface ---------------------------------------------------

    def request_broadcast(self, payload: Any) -> None:
        self.b_mes = payload
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag, payload=payload)

    external_request = request_broadcast

    @property
    def wave_id(self) -> tuple[int, int]:
        assert self.host is not None
        return (self.host.pid, self.wave_seq)

    # -- actions ------------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("N1", self._guard_start, self._action_start),
            Action("N2", self._guard_decide, self._action_decide),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        """Send the broadcast exactly once to every peer (the naive part)."""
        assert self.host is not None
        self.request = RequestState.IN
        self.wave_seq += 1
        for q in self.host.others:
            self.acked[q] = False
        self.host.emit(
            EventKind.START, tag=self.tag, wave=self.wave_id, payload=self.b_mes
        )
        for q in self.host.others:
            self.host.send(
                q,
                NaiveMessage(tag=self.tag, kind="brd", payload=self.b_mes,
                             debug_wave=self.wave_id),
            )

    def _guard_decide(self) -> bool:
        assert self.host is not None
        return self.request is RequestState.IN and all(
            self.acked[q] for q in self.host.others
        )

    def _action_decide(self) -> None:
        assert self.host is not None
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag, wave=self.wave_id)
        self.client.on_decide()

    # -- receive ---------------------------------------------------------------------

    def on_message(self, sender: int, msg: NaiveMessage) -> None:
        assert self.host is not None
        if msg.kind == "brd":
            self.host.emit(
                EventKind.RECEIVE_BRD,
                tag=self.tag,
                sender=sender,
                payload=msg.payload,
                wave=msg.debug_wave,
            )
            feedback = self.client.on_broadcast(sender, msg.payload)
            self.host.send(
                sender,
                NaiveMessage(tag=self.tag, kind="fck", payload=feedback,
                             debug_wave=msg.debug_wave),
            )
        elif msg.kind == "fck":
            # The naive initiator believes any feedback — including stale
            # garbage from the initial configuration.
            if sender in self.acked and not self.acked[sender]:
                self.acked[sender] = True
                self.host.emit(
                    EventKind.RECEIVE_FCK,
                    tag=self.tag,
                    sender=sender,
                    payload=msg.payload,
                    wave=self.wave_id,
                )
                self.client.on_feedback(sender, msg.payload)

    # -- adversary interface --------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self.b_mes = rng.choice(list(self.client.broadcast_domain()))
        for q in self.host.others:
            self.acked[q] = rng.random() < 0.5

    def garbage_message(self, rng: random.Random) -> NaiveMessage:
        kind = rng.choice(["brd", "fck"])
        domain = (
            self.client.broadcast_domain()
            if kind == "brd"
            else self.client.feedback_domain()
        )
        return NaiveMessage(tag=self.tag, kind=kind,
                            payload=rng.choice(list(domain)), debug_wave=None)
