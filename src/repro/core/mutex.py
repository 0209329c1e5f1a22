"""Protocol ME — Algorithm 3 of the paper (snap-stabilizing mutual exclusion).

The process with the smallest identity (the *leader*) arbitrates access to
the critical section through its ``Value`` variable: ``Value = 0`` favours
the leader itself, ``Value = k`` favours the process on the leader's local
channel ``k``.  Each process cycles through five phases:

* **Phase 0** — start an IDL computation; take a pending external request
  into account (``Request ← In``; the *start* of Specification 3).
* **Phase 1** — once IDL decided (IDs and leader known), broadcast ``ASK``
  via PIF: every process feeds back ``YES`` iff its ``Value`` favours the
  asker.  Only the leader's answer will matter.
* **Phase 2** — once the ASK wave decided, evaluate ``Winner``; a winner
  broadcasts ``EXIT``, forcing every other process back to phase 0, which
  guarantees nobody else still believes it may enter the critical section.
* **Phase 3** — once the EXIT wave decided, a winner executes the critical
  section (if it has a request in), then releases: the leader advances its
  own ``Value``; a non-leader broadcasts ``EXITCS`` so the leader advances
  ``Value`` on its behalf.
* **Phase 4** — once the EXITCS wave decided, return to phase 0.

Deviations from the paper, documented in DESIGN.md:

* A7 increments ``Value`` modulo ``deg(p) + 1`` (= ``n`` on the paper's
  complete graph) rather than the paper's ``n + 1``: the extra value
  favours nobody and would stall the leader forever, contradicting the
  paper's own liveness lemma (Lemma 11).  Pass ``use_paper_modulus=True``
  to reproduce the stall (ablation E8b).
* The critical section takes ``cs_duration`` ticks instead of being
  instantaneous-inside-A3.  The process stays *busy* for the whole span
  (no activations, no deliveries), which preserves the paper's atomicity
  argument while making the mutual-exclusion property observable.

**Non-complete topologies.**  The paper assumes the complete graph, where
every process learns the one global leader and that leader's ``Value``
arbitrates globally.  On a pluggable topology each process learns its
*closed neighbourhood* minimum instead, so arbitration happens per *leader
cluster* (processes sharing a leader — see
:func:`repro.sim.topology.arbitration_clusters`); on the complete graph the
single cluster recovers the global guarantee.  Two extra deviations, active
only when the topology is not complete (complete-graph runs are bit-for-bit
identical to before), keep every arbiter's ``Value`` rotating:

* a releasing *leader* also broadcasts ``EXITCS`` — on the complete graph
  nobody consults another arbiter, but here a neighbour whose own arbiter
  currently favours this leader needs the release notification to advance;
* an arbiter that is not its own leader escapes ``Value = 0`` (which
  favours only the process itself — meaningful solely at self-leaders) on
  any ``EXITCS`` receipt.

Liveness of the generalized rotation: an arbiter stuck favouring ``m``
waits on ``m`` winning via ``m``'s own leader, whose identity is <= the
arbiter's — every waits-on chain descends in leader identity, cycles are
impossible, and the chain bottoms out at a self-leader that rotates itself.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from repro.core.idl import IdlLayer
from repro.core.pif import PifClient, PifLayer
from repro.errors import ProtocolError
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["MutexLayer", "ASK", "EXIT", "EXITCS", "YES", "NO", "OK"]

# Broadcast payloads (the instance's broadcast alphabet).
ASK = "ASK"
EXIT = "EXIT"
EXITCS = "EXITCS"
# Feedback payloads (the instance's feedback alphabet).
YES = "YES"
NO = "NO"
OK = "OK"


class MutexLayer(Layer, PifClient):
    """One instance of Protocol ME (Algorithm 3)."""

    #: The variables of Algorithm 3, the CS occupancy and whether the
    #: current computation was requested in this run.
    STATE = ("request", "_request_started", "phase", "value", "privileges", "in_cs")

    def __init__(
        self,
        tag: str = "me",
        ident: int | None = None,
        cs_duration: int = 3,
        use_paper_modulus: bool = False,
        cs_body: Callable[[], None] | None = None,
        max_state: int | None = None,
    ) -> None:
        super().__init__(tag)
        if cs_duration < 0:
            raise ProtocolError(f"cs_duration must be >= 0, got {cs_duration}")
        self.idl = IdlLayer(f"{tag}/idl", ident=ident, max_state=max_state)
        pif_kwargs = {} if max_state is None else {"max_state": max_state}
        self.pif = PifLayer(f"{tag}/pif", client=self, **pif_kwargs)
        self.cs_duration = cs_duration
        self.use_paper_modulus = use_paper_modulus
        self.cs_body = cs_body
        # Variables of Algorithm 3.
        self.request: RequestState = RequestState.DONE
        self.phase: int = 0
        self.value: int = 0
        self.privileges: dict[int, bool] = {}
        # True while this process occupies the critical section.
        self.in_cs: bool = False
        # True iff the current Request=In computation genuinely started in
        # this run (A0 witnessed Wait -> In).  A scrambled configuration can
        # fabricate Request=In out of thin air; the CS such a phantom
        # computation executes is initial-configuration occupancy (the
        # paper's footnote 1), not a *requested* CS — the guarantee covers
        # computations started after the arbitrary initial configuration.
        self._request_started: bool = False

    # -- wiring -----------------------------------------------------------------

    def sublayers(self) -> Sequence[Layer]:
        return (self.idl, self.pif)

    def on_attach(self) -> None:
        assert self.host is not None
        for q in self.host.others:
            self.privileges.setdefault(q, False)
        # Complete-graph runs keep the paper's exact behaviour; the two
        # generalization deviations (module docstring) gate on this flag.
        self._complete_topology = self.host.topology_complete

    @property
    def ident(self) -> int:
        return self.idl.ident

    @property
    def _value_modulus(self) -> int:
        assert self.host is not None
        base = self.host.degree + 1  # = n on the complete graph
        return base + 1 if self.use_paper_modulus else base

    # -- external interface ----------------------------------------------------------

    def request_cs(self) -> None:
        """External request for the critical section (``Request ← Wait``).

        Per Hypothesis 1 the application must not call this again before
        ``request`` is back to ``Done``.
        """
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_cs

    # -- the Winner predicate ------------------------------------------------------------

    def winner(self) -> bool:
        """Winner(p) of Algorithm 3."""
        assert self.host is not None
        if self.idl.min_id == self.ident and self.value == 0:
            return True
        return any(
            self.privileges[q] and self.idl.id_tab.get(q) == self.idl.min_id
            for q in self.host.others
        )

    # -- actions (Algorithm 3, A0-A4) ----------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("A0", self._guard_a0, self._action_a0),
            Action("A1", self._guard_a1, self._action_a1),
            Action("A2", self._guard_a2, self._action_a2),
            Action("A3", self._guard_a3, self._action_a3),
            Action("A4", self._guard_a4, self._action_a4),
        )

    def _set_phase(self, phase: int) -> None:
        assert self.host is not None
        self.phase = phase
        self.host.emit(EventKind.PHASE, tag=self.tag, phase=phase)

    def _guard_a0(self) -> bool:
        return self.phase == 0 and not self.in_cs

    def _action_a0(self) -> None:
        """A0 :: Phase = 0 -> start IDL; take a pending request into account."""
        assert self.host is not None
        self.idl.request_learn()
        if self.request is RequestState.WAIT:
            self.request = RequestState.IN
            self._request_started = True
            self.host.emit(EventKind.START, tag=self.tag)
        self._set_phase(1)

    def _guard_a1(self) -> bool:
        return (
            self.phase == 1
            and not self.in_cs
            and self.idl.request is RequestState.DONE
        )

    def _action_a1(self) -> None:
        """A1 :: IDL decided -> broadcast ASK."""
        self.pif.request_broadcast(ASK)
        self._set_phase(2)

    def _guard_a2(self) -> bool:
        return (
            self.phase == 2
            and not self.in_cs
            and self.pif.request is RequestState.DONE
        )

    def _action_a2(self) -> None:
        """A2 :: ASK wave decided -> a winner broadcasts EXIT."""
        if self.winner():
            self.pif.request_broadcast(EXIT)
        self._set_phase(3)

    def _guard_a3(self) -> bool:
        return (
            self.phase == 3
            and not self.in_cs
            and self.pif.request is RequestState.DONE
        )

    def _action_a3(self) -> None:
        """A3 :: EXIT wave decided -> critical section, then release."""
        assert self.host is not None
        if not self.winner():
            self._set_phase(4)
            return
        if self.request is RequestState.IN:
            self._enter_cs()
            # The release and the phase switch run at CS exit; the process
            # is busy until then, preserving A3's atomicity.
            return
        self._release()
        self._set_phase(4)

    def _enter_cs(self) -> None:
        assert self.host is not None
        self.in_cs = True
        self.host.emit(
            EventKind.CS_ENTER, tag=self.tag, requested=self._request_started
        )
        if self.cs_body is not None:
            self.cs_body()
        self.host.set_busy_for(self.cs_duration)
        self.host.call_later(self.cs_duration, self._exit_cs)

    def _exit_cs(self) -> None:
        assert self.host is not None
        if not self.in_cs:
            return  # defensive: already exited (e.g. state restored)
        self.in_cs = False
        self.host.emit(EventKind.CS_EXIT, tag=self.tag)
        self.request = RequestState.DONE
        self._request_started = False
        self.host.emit(EventKind.DECIDE, tag=self.tag)
        self._release()
        self._set_phase(4)

    def _release(self) -> None:
        """Tail of A3: notify the leader that the CS is free again."""
        if self.idl.min_id == self.ident:
            self.value = 1
            if not self._complete_topology:
                # Generalization deviation: a neighbour arbiter whose Value
                # currently favours this leader advances only on EXITCS.
                self.pif.request_broadcast(EXITCS)
        else:
            self.pif.request_broadcast(EXITCS)

    def _guard_a4(self) -> bool:
        return (
            self.phase == 4
            and not self.in_cs
            and self.pif.request is RequestState.DONE
        )

    def _action_a4(self) -> None:
        """A4 :: last wave decided -> back to phase 0."""
        self._set_phase(0)

    # -- PIF upcalls (A5-A10) ------------------------------------------------------------------

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        assert self.host is not None
        if payload == ASK:
            # A5: YES iff Value favours the asker.
            if self.value == self.host.chan_num(sender):
                return YES
            return NO
        if payload == EXIT:
            # A6: restart from phase 0.
            self._set_phase(0)
            return OK
        if payload == EXITCS:
            # A7: the favoured process released; favour the next one.
            if self.value == self.host.chan_num(sender):
                self.value = (self.value + 1) % self._value_modulus
            elif (
                not self._complete_topology
                and self.value == 0
                and self.idl.min_id != self.ident
            ):
                # Generalization deviation: Value = 0 favours only the
                # process itself, which is meaningful solely at a
                # self-leader; any other arbiter escapes it.
                self.value = 1
            return OK
        return None  # garbage payload outside the alphabet

    def on_feedback(self, sender: int, payload: Any) -> None:
        if payload == YES:
            self.privileges[sender] = True  # A8
        elif payload == NO:
            self.privileges[sender] = False  # A9
        # A10 (OK): do nothing.

    # -- message alphabet (for the adversary) ------------------------------------------------------

    def broadcast_domain(self) -> Sequence[Any]:
        return (ASK, EXIT, EXITCS)

    def feedback_domain(self) -> Sequence[Any]:
        return (YES, NO, OK)

    # -- adversary / configuration interface ----------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self._request_started = False
        self.phase = rng.randint(0, 4)
        self.value = rng.randrange(self._value_modulus)
        for q in self.host.others:
            self.privileges[q] = rng.random() < 0.5
        # The arbitrary initial configuration may place a (non-requesting)
        # process inside the critical section (the paper's footnote 1);
        # such an occupant leaves after the normal CS duration.
        if rng.random() < 0.15:
            self.in_cs = True
            self.host.emit(EventKind.CS_ENTER, tag=self.tag, requested=False)
            self.host.set_busy_for(self.cs_duration)
            self.host.call_later(self.cs_duration, self._scramble_exit_cs)

    def _scramble_exit_cs(self) -> None:
        if not self.in_cs:
            return
        self.in_cs = False
        assert self.host is not None
        self.host.emit(EventKind.CS_EXIT, tag=self.tag)
