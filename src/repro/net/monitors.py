"""The per-row adapter of the specification automata.

``check_*`` (:mod:`repro.spec`) drives a specification automaton over a
*finished* trace, and that pass — :func:`repro.analysis.runner.run_trial`'s
— is the one verdict of a trial on every engine.  A :class:`SpecMonitor`
is the same automaton seen one row at a time: :meth:`SpecMonitor.observe`
takes a raw ``(time, kind, process, data)`` row (no
:class:`~repro.sim.trace.TraceEvent` view), forwards the rows of the
automaton's ``KINDS`` and ``tag`` to ``step``, and
:meth:`SpecMonitor.report` is ``finish``.  It is the reader a
trace-less consumer feeds (a live reader of a stream of rows); the tests
hold it to ``check_*`` violation for violation.  Nothing here is
specification-specific: the clauses live in :mod:`repro.spec`, the tag →
automaton table is :data:`repro.core.protocols.PROTOCOLS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.protocols import PROTOCOLS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spec.base import SpecVerdict

__all__ = ["SpecMonitor", "default_monitors"]


class SpecMonitor:
    """One specification automaton fed trace rows one at a time."""

    __slots__ = ("automaton", "events", "_kinds", "_tag", "_step")

    def __init__(self, automaton) -> None:
        self.automaton = automaton
        self.events = 0  # rows fed to the automaton so far
        self._kinds = frozenset(automaton.KINDS)
        self._tag = automaton.tag
        self._step = automaton.step

    def observe(
        self, time: int, kind: str, process: int | None, data: Mapping[str, Any]
    ) -> None:
        """Advance on one row; rows of other kinds or tags are skipped."""
        if kind in self._kinds and data.get("tag") == self._tag:
            self.events += 1
            self._step(time, kind, process, data)

    def report(self, **at_end: Any) -> SpecVerdict:
        """The automaton's verdict, end-of-run liveness residues included."""
        verdict = self.automaton.finish(**at_end)
        verdict.events_observed = self.events
        return verdict


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
