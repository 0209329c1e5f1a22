"""Online specification monitors: the live-trace driver of the automata.

``check_*`` (:mod:`repro.spec`) drives a specification automaton over a
*finished* trace; over a real transport the trace materializes as the
system runs, so a :class:`LiveTrace` drives the *same* automaton from the
other end: every emission goes to the attached :class:`SpecMonitor`
adapters as raw ``(time, kind, process, data)`` columns (no
:class:`~repro.sim.trace.TraceEvent` view on the emission hot path), each
forwards the rows of its automaton's ``KINDS`` and ``tag`` to ``step``, and
:meth:`SpecMonitor.report` is ``finish`` — read once the trial's drain
window has closed.  Nothing here is specification-specific: the clauses
live in :mod:`repro.spec`, the tag → automaton table is
:data:`repro.core.protocols.PROTOCOLS`.

On deterministic transports the verdicts equal the offline ones by
construction and ride along as provenance (the gates' ``monitors_ok ==
ok`` checks the plumbing: right automaton, right scoping); over ``tcp`` /
``udp`` / cluster freerun, where a run is not reproducible, the monitors
*are* the correctness instrument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.protocols import PROTOCOLS
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spec.base import SpecVerdict

__all__ = ["LiveTrace", "SpecMonitor", "default_monitors"]


class SpecMonitor:
    """One specification automaton fed every trace emission as it happens."""

    __slots__ = ("automaton", "events", "_kinds", "_tag", "_step")

    def __init__(self, automaton) -> None:
        self.automaton = automaton
        self.events = 0  # emissions fed to the automaton so far
        self._kinds = frozenset(automaton.KINDS)
        self._tag = automaton.tag
        self._step = automaton.step

    def observe(
        self, time: int, kind: str, process: int | None, data: Mapping[str, Any]
    ) -> None:
        """Advance on one event (called synchronously from ``Trace.emit``)."""
        if kind in self._kinds and data.get("tag") == self._tag:
            self.events += 1
            self._step(time, kind, process, data)

    def report(self, **at_end: Any) -> SpecVerdict:
        """The automaton's verdict, end-of-run liveness residues included."""
        verdict = self.automaton.finish(**at_end)
        verdict.events_observed = self.events
        return verdict


class LiveTrace(Trace):
    """A trace that feeds every emitted event to the attached monitors.

    Emission content and order are identical to the base :class:`Trace`
    (observers only *read* events), so substituting a ``LiveTrace`` never
    perturbs bit-identity with the serial engine.
    """

    __slots__ = ("observers",)

    def __init__(self) -> None:
        super().__init__()
        self.observers: list[SpecMonitor] = []

    def attach(self, monitor: SpecMonitor) -> None:
        self.observers.append(monitor)

    def emit(self, time: int, kind: str, process: int | None, **data: Any) -> None:
        self._append(time, kind, process, data)
        for observer in self.observers:
            observer.observe(time, kind, process, data)


def default_monitors(
    tag: str, topology, idents: Mapping[int, int] | None = None
) -> list[SpecMonitor]:
    """The monitor of driver tag ``tag`` on ``topology``: the automaton
    of that row of :data:`repro.core.protocols.PROTOCOLS` (``idents`` is
    the IDL ground truth, default pid); a tag no protocol is keyed on is
    not monitored."""
    if tag not in PROTOCOLS:
        return []
    return [SpecMonitor(PROTOCOLS[tag].automaton(topology, idents=idents))]
