"""Specification 3 — ME-Execution (Section 4.3), as one streaming automaton.

* **Start** — any process that requests the critical section enters it in
  finite time.
* **Correctness** — if a requesting process enters the critical section, it
  executes it alone.

The arbitrary initial configuration may place *non-requesting* processes in
the critical section (the paper's footnote 1); such occupancies are recorded
with ``requested=False``.  The paper guarantees exclusivity for requesting
processes, and the EXIT-wave mechanism in fact prevents a requested CS from
overlapping *any* other occupancy once the zombie occupant blocks the EXIT
wave until it leaves — so the automaton flags any conflict involving at
least one requested occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Mapping, Sequence

from repro.sim.trace import EventKind, Trace
from repro.spec.base import Automaton, SpecVerdict, drive

__all__ = ["CsInterval", "MutexAutomaton", "cs_intervals", "check_mutex", "service_order"]


@dataclass(frozen=True)
class CsInterval:
    """One critical-section occupancy."""

    pid: int
    enter: int
    exit: int | None  # None when still inside at the end of the trace
    requested: bool


class MutexAutomaton(Automaton):
    """Specification 3 for the ME instance ``tag``.

    Local state: per process the pending request (Start: discharged by the
    DECIDE that closes its service) and the current occupancy.  The global
    step is a CS_ENTER, which judges **Correctness** against the set of
    current occupants.  An execution is a sequence of configurations and
    two conflicting occupants in one configuration *is* the violation, so
    **event order decides, not tick comparison**: an entry emitted before
    the other occupant's exit conflicts with it even when both rows carry
    the same tick, and an exit emitted first does not.  An occupant that
    never exits conflicts with every later entry, so no closing time is
    needed.

    ``clusters`` generalizes Correctness to non-complete topologies: ME
    arbitrates per *leader cluster* (processes sharing the same closed-
    neighbourhood-minimum leader — see
    :func:`repro.sim.topology.arbitration_clusters`), so two occupants
    conflict only inside a common cluster.  Without it every pair
    conflicts — the paper's complete graph, where the single global leader
    forms one cluster.

    By-products: :attr:`intervals` (every occupancy) and
    :attr:`service_order` (pids in the order they entered a requested CS).
    """

    NAME = "ME"
    KINDS = (EventKind.REQUEST, EventKind.DECIDE, EventKind.CS_ENTER, EventKind.CS_EXIT)

    def __init__(
        self, tag: str, *, clusters: Sequence[Collection[int]] | None = None
    ) -> None:
        super().__init__(tag)
        self._clusters = None if clusters is None else [frozenset(c) for c in clusters]
        self.service_order: list[int] = []
        self._closed: list[CsInterval] = []
        self._occupants: dict[int, tuple[int, bool]] = {}

    @property
    def intervals(self) -> list[CsInterval]:
        """Every occupancy, closed or still open, by entry."""
        still_open = [CsInterval(pid, enter, None, requested)
                      for pid, (enter, requested) in self._occupants.items()]
        return sorted(self._closed + still_open, key=lambda i: (i.enter, i.pid))

    def _conflict(self, p: int, q: int) -> bool:
        if self._clusters is None:
            return True
        return any(p in c and q in c for c in self._clusters)

    def step(
        self, time: int, kind: str, pid: int | None, data: Mapping[str, Any]
    ) -> None:
        if pid is None:
            return
        if kind == EventKind.CS_ENTER:
            requested = bool(data.get("requested", True))
            for other, (enter, other_requested) in self._occupants.items():
                if (other != pid and (requested or other_requested)
                        and self._conflict(pid, other)):
                    self._flag(
                        "Correctness",
                        f"critical sections overlap: p{pid} "
                        f"(requested={requested}) entered while p{other} "
                        f"(requested={other_requested}, since t={enter}) "
                        f"is inside",
                        time, pid)
            self._occupants[pid] = (time, requested)
            if requested:
                self.service_order.append(pid)
        elif kind == EventKind.CS_EXIT:
            opened = self._occupants.pop(pid, None)
            if opened is not None:
                self._closed.append(CsInterval(pid, opened[0], time, opened[1]))
        elif kind == EventKind.REQUEST:
            self._pending.setdefault(pid, time)
        else:  # DECIDE
            self._pending.pop(pid, None)

    def finish(self, *, require_all_served: bool = True) -> SpecVerdict:
        """The verdict so far; with ``require_all_served`` also the Start
        residue — every REQUEST serviced (decided) by now."""
        intervals = self.intervals
        verdict = self._verdict(
            cs_count=len(intervals),
            requested_cs_count=sum(1 for i in intervals if i.requested))
        if require_all_served:
            verdict.add_unanswered(
                "Start", self._pending,
                "request at t={t} never serviced (no CS entry/decide)")
        return verdict


def check_mutex(
    trace: Trace,
    tag: str,
    *,
    horizon: int | None = None,
    require_all_served: bool = True,
    clusters: Sequence[Collection[int]] | None = None,
) -> SpecVerdict:
    """Specification 3 over a finished trace (see :class:`MutexAutomaton`).

    ``horizon`` (the end-of-run time) is accepted and not needed: under the
    event-order reading a still-open occupancy needs no closing time.
    """
    return drive(MutexAutomaton(tag, clusters=clusters), trace).finish(
        require_all_served=require_all_served)


def cs_intervals(trace: Trace, tag: str) -> list[CsInterval]:
    """Every critical-section occupancy of ``tag``, by entry."""
    return drive(MutexAutomaton(tag), trace).intervals


def service_order(trace: Trace, tag: str) -> list[int]:
    """The order in which processes entered requested critical sections."""
    return drive(MutexAutomaton(tag), trace).service_order
