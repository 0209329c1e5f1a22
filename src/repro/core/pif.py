"""Protocol PIF — Algorithm 1 of the paper.

Snap-stabilizing Propagation of Information with Feedback for
fully-connected message-passing systems with known bounded channel capacity.

The handshake: for every peer ``q``, the initiator ``p`` drives a flag
``State_p[q]`` from 0 to ``max_state`` (4 for single-message-capacity
channels).  ``p`` repeatedly sends
``⟨PIF, B-Mes_p, F-Mes_p[q], State_p[q], NeigState_p[q]⟩`` and increments
``State_p[q]`` only on receiving a message echoing exactly its current flag.
Because at most one stale message per direction can exist initially (plus one
stale ``NeigState`` at the peer), at most three increments can be spurious:
the 3 → 4 step is guaranteed causal (Lemma 4), which makes the protocol
snap-stabilizing (Theorem 2).

The five-valued flag domain is configurable via ``max_state``:

* ``max_state = capacity + 3`` is the safe choice for capacity-``c`` channels
  (the paper's "extension to an arbitrary but known bounded message capacity
  is straightforward");
* smaller domains are accepted so the E8a ablation can demonstrate how
  safety breaks without enough flag values.

Clients receive the paper's events as synchronous upcalls:
``on_broadcast`` (receive-brd; the return value becomes ``F-Mes``),
``on_feedback`` (receive-fck) and ``on_decide``.

The layer consumes its peer set through the host's local channel numbering
(``host.others``), never through an ``n - 1`` assumption: on a pluggable
non-complete topology a wave spans exactly the initiator's neighbourhood
(the handshake argument is per-channel, so snap-stabilization is preserved
edge by edge); on the paper's complete graph that is all other processes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.messages import PifMessage
from repro.errors import ProtocolError
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.runtime import Link

__all__ = ["PifClient", "PifLayer", "DEFAULT_MAX_STATE"]

#: Flag domain upper bound for single-message-capacity channels: {0..4}.
DEFAULT_MAX_STATE = 4


class PifClient:
    """Base class / interface for applications layered over Protocol PIF.

    Subclasses override the upcalls they care about.  ``broadcast_domain`` /
    ``feedback_domain`` describe the instance's message alphabet; the
    adversary draws arbitrary-but-well-typed garbage from them.
    """

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        """receive-brd⟨payload⟩ from ``sender``; return the feedback value.

        Returning ``None`` leaves ``F-Mes[sender]`` unchanged.
        """
        return None

    def on_feedback(self, sender: int, payload: Any) -> None:
        """receive-fck⟨payload⟩ from ``sender``."""

    def on_decide(self) -> None:
        """The computation this process started has terminated."""

    def broadcast_domain(self) -> Sequence[Any]:
        """Possible broadcast payloads of this instance."""
        return ("m0", "m1")

    def feedback_domain(self) -> Sequence[Any]:
        """Possible feedback payloads of this instance."""
        return ("f0", "f1")


class PifLayer(Layer):
    """One instance of Protocol PIF (Algorithm 1)."""

    def __init__(
        self,
        tag: str,
        client: PifClient | None = None,
        max_state: int = DEFAULT_MAX_STATE,
    ) -> None:
        super().__init__(tag)
        if max_state < 1:
            raise ProtocolError(f"max_state must be >= 1, got {max_state}")
        self.client = client if client is not None else PifClient()
        self.max_state = max_state
        # Variables of Algorithm 1 (initial values form the quiescent
        # configuration; snap-stabilization holds from *any* values).
        self.request: RequestState = RequestState.DONE
        self.b_mes: Any = None
        self.f_mes: dict[int, Any] = {}
        self.state: dict[int, int] = {}
        self.neig_state: dict[int, int] = {}
        # Verification-only: identifies started computations in the trace;
        # _wave is wave_id, built once per wave for the messages and every
        # trace row of the wave to share.
        self.wave_seq = 0
        self._wave: tuple[int, int] | None = None
        # peer -> the compiled link of the channel to it, filled at the
        # first send to each peer (repro.sim.runtime.Link).
        self._links: dict[int, Link] = {}

    # -- wiring ---------------------------------------------------------------

    def on_attach(self) -> None:
        assert self.host is not None
        self._wave = self.wave_id
        # Comprehensions instead of per-key setdefault: attach runs for
        # every layer of every host, so this is simulator-construction cost.
        others = self.host.others
        f_mes, state, neig = self.f_mes, self.state, self.neig_state
        self.f_mes = {q: f_mes.get(q) for q in others}
        self.state = {q: state.get(q, self.max_state) for q in others}
        self.neig_state = {q: neig.get(q, 0) for q in others}

    # -- external interface -----------------------------------------------------

    def request_broadcast(self, payload: Any) -> None:
        """External request: broadcast ``payload`` with feedback.

        Sets ``B-Mes`` and switches ``Request`` to Wait; the computation
        starts at the next activation (action A1).
        """
        self.b_mes = payload
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag, payload=payload)

    # Unified name used by the request driver.
    external_request = request_broadcast

    @property
    def wave_id(self) -> tuple[int, int]:
        """Identifier of the current/last started computation (debug only)."""
        assert self.host is not None
        return (self.host.pid, self.wave_seq)

    # -- actions (Algorithm 1) -----------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("A1", self._guard_a1, self._action_a1),
            Action("A2", self._guard_a2, self._action_a2),
        )

    def _guard_a1(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_a1(self) -> None:
        """A1 :: Request = Wait -> start the computation."""
        assert self.host is not None
        self.request = RequestState.IN
        self.wave_seq += 1
        self._wave = self.wave_id
        for q in self.host.others:
            self.state[q] = 0
        self.host.emit(
            EventKind.START, tag=self.tag, wave=self._wave, payload=self.b_mes
        )

    def _guard_a2(self) -> bool:
        return self.request is RequestState.IN

    def _action_a2(self) -> None:
        """A2 :: Request = In -> terminate or (re)send to laggards."""
        assert self.host is not None
        # One walk: every laggard gets a send; with none left, decide.
        state, max_state = self.state, self.max_state
        decided = True
        for q in self.host.others:
            if state[q] != max_state:
                decided = False
                self._send_to(q)
        if decided:
            self.request = RequestState.DONE
            self.host.emit(EventKind.DECIDE, tag=self.tag, wave=self._wave)
            self.client.on_decide()

    def _send_to(self, q: int) -> None:
        # The hottest lines of a dense trial.  A resend into a full slot is
        # lost, so the link decides from the tag first and the message is
        # built only for a claimed slot (positional: one frame less).
        try:
            link = self._links[q]
        except KeyError:
            assert self.host is not None
            link = self._links[q] = self.host.link(q)
        if link.claim(self.tag):
            link.put(PifMessage(
                self.tag, self.b_mes, self.f_mes[q], self.state[q],
                self.neig_state[q], self._wave,
            ))

    # -- receive action (A3) -----------------------------------------------------

    def on_message(self, sender: int, msg: PifMessage) -> None:
        """A3 :: receive ⟨PIF, B, F, qState, pState⟩ from q."""
        assert self.host is not None
        q = sender
        if q not in self.state:
            return  # message from an unknown process: ignore
        brd_flag = self.max_state - 1

        # Generate the receive-brd event exactly once per peer broadcast:
        # when NeigState switches to max_state - 1.
        if self.neig_state[q] != brd_flag and msg.state == brd_flag:
            self.host.emit(
                EventKind.RECEIVE_BRD,
                tag=self.tag,
                sender=q,
                payload=msg.broadcast,
                wave=msg.debug_wave,
            )
            feedback = self.client.on_broadcast(q, msg.broadcast)
            if feedback is not None:
                self.f_mes[q] = feedback

        self.neig_state[q] = msg.state

        if self.state[q] == msg.echo and self.state[q] < self.max_state:
            self.state[q] += 1
            if self.state[q] == self.max_state:
                self.host.emit(
                    EventKind.RECEIVE_FCK,
                    tag=self.tag,
                    sender=q,
                    payload=msg.feedback,
                    wave=self._wave,
                )
                self.client.on_feedback(q, msg.feedback)

        if msg.state < self.max_state:
            self._send_to(q)

    # -- adversary / configuration interface ----------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self.b_mes = rng.choice(list(self.client.broadcast_domain()))
        for q in self.host.others:
            self.f_mes[q] = rng.choice(list(self.client.feedback_domain()))
            self.state[q] = rng.randint(0, self.max_state)
            self.neig_state[q] = rng.randint(0, self.max_state)

    def garbage_message(self, rng: random.Random) -> PifMessage:
        return PifMessage(
            tag=self.tag,
            broadcast=rng.choice(list(self.client.broadcast_domain())),
            feedback=rng.choice(list(self.client.feedback_domain())),
            state=rng.randint(0, self.max_state),
            echo=rng.randint(0, self.max_state),
            debug_wave=None,
        )

    def snapshot(self) -> dict[str, Any]:
        return {
            "request": self.request,
            "b_mes": self.b_mes,
            "f_mes": dict(self.f_mes),
            "state": dict(self.state),
            "neig_state": dict(self.neig_state),
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.request = state["request"]
        self.b_mes = state["b_mes"]
        self.f_mes = dict(state["f_mes"])
        self.state = dict(state["state"])
        self.neig_state = dict(state["neig_state"])
