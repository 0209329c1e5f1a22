"""Specification 2 — IDs-Learning-Execution (Section 4.2), as one automaton.

At the end of any IDs-Learning computation *started* by ``p``:
``ID-Tab_p[q] = ID_q`` for every peer ``q`` and
``minID_p = min`` of all identities.  Start and Termination mirror
Specification 1.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.sim.trace import EventKind, Trace
from repro.spec.base import Automaton, SpecVerdict, drive
from repro.types import RequestState

__all__ = ["IdlAutomaton", "check_idl"]


class IdlAutomaton(Automaton):
    """Specification 2 for the IDL instance ``tag``.

    ``idents`` is the ground truth: pid -> identity.  Local state: per
    process the pending request (discharged by a START — Start is about
    *starting*, as in Specification 1) and the open computation
    (discharged by the next DECIDE at the same process).  The DECIDE of a
    started computation judges Correctness on the decision payload
    (``min_id`` and ``id_tab`` recorded in the event); the decision of a
    never-started computation carries no guarantee.

    ``neighbors`` (pid -> neighbour ids) scopes the ground truth to what
    an IDL wave can reach on a non-complete topology: the decided
    ``min_id`` must be the *closed neighbourhood* minimum and ``id_tab``
    must cover exactly the neighbours.  Without it the paper's
    complete-graph reading applies (global minimum, every other process
    tabulated).  The by-product is the number of judged computations.
    """

    NAME = "IDL"
    KINDS = (EventKind.REQUEST, EventKind.START, EventKind.DECIDE)

    def __init__(
        self,
        tag: str,
        idents: Mapping[int, int],
        *,
        neighbors: Mapping[int, Sequence[int]] | None = None,
    ) -> None:
        super().__init__(tag)
        self.idents = idents
        self.neighbors = neighbors
        self.computations = 0
        self._true_min = min(idents.values())
        self._started: dict[int, int] = {}

    def step(
        self, time: int, kind: str, pid: int | None, data: Mapping[str, Any]
    ) -> None:
        if pid is None:
            return
        if kind == EventKind.REQUEST:
            self._pending.setdefault(pid, time)
        elif kind == EventKind.START:
            self._pending.pop(pid, None)
            self._started[pid] = time
        elif self._started.pop(pid, None) is not None:  # DECIDE
            self.computations += 1
            self._judge(time, pid, data.get("min_id"), data.get("id_tab") or {})

    def _judge(self, time: int, pid: int, min_id: Any, id_tab: Mapping) -> None:
        idents = self.idents
        if self.neighbors is not None:
            peers = tuple(self.neighbors[pid])
            expected_min = min(idents[pid], min(idents[q] for q in peers))
        else:
            peers = tuple(q for q in idents if q != pid)
            expected_min = self._true_min
        if min_id != expected_min:
            self._flag(
                "Correctness",
                f"decided min_id={min_id!r}, true minimum is {expected_min}",
                time, pid)
        for q in peers:
            if id_tab.get(q) != idents[q]:
                self._flag(
                    "Correctness",
                    f"ID-Tab[{q}]={id_tab.get(q)!r}, true identity is {idents[q]}",
                    time, pid)

    def finish(
        self, *, final_requests: Mapping[int, RequestState] | None = None
    ) -> SpecVerdict:
        """The verdict so far plus the liveness residues (``final_requests``
        as in :meth:`repro.spec.pif_spec.PifAutomaton.finish`)."""
        verdict = self._verdict(computations=self.computations)
        verdict.add_unanswered(
            "Start", self._pending, "request at t={t} never started")
        verdict.add_unanswered(
            "Termination", self._started,
            "computation started at t={t} never decided")
        verdict.add_still_in(final_requests)
        return verdict


def check_idl(
    trace: Trace,
    tag: str,
    idents: Mapping[int, int],
    *,
    final_requests: Mapping[int, RequestState] | None = None,
    neighbors: Mapping[int, Sequence[int]] | None = None,
) -> SpecVerdict:
    """Specification 2 over a finished trace (see :class:`IdlAutomaton`)."""
    return drive(IdlAutomaton(tag, idents, neighbors=neighbors), trace).finish(
        final_requests=final_requests)
