"""Common machinery of the specification automata.

Specifications are predicates over *executions* (Section 2).  Each of
Specifications 1–3 is written once, as a streaming automaton over the
trace's ``(time, kind, process, data)`` rows:

* ``KINDS`` and ``tag`` — it consumes the rows of these event kinds whose
  ``data["tag"]`` names its protocol instance; the drivers select them;
* ``step(time, kind, process, data)`` — advance on one row: per-process
  local state (pending request, open computation, occupancy) plus the
  synchronising global step that judges a safety clause *at the event
  that commits it* (a decide with a missing acknowledgment, a second
  conflicting occupant);
* ``finish(...)`` — the :class:`SpecVerdict`: the committed violations
  plus the Start/Termination liveness residues, which can only be judged
  once the run is over.  ``finish`` does not consume the automaton, so a
  live verdict can be read at any time.

An automaton never inspects protocol internals, so it is an independent
oracle.  :func:`drive` feeds it a finished :class:`~repro.sim.trace.Trace`
(the ``check_*`` functions); that pass, made once per trial by
:func:`repro.analysis.runner.run_trial`, is the verdict on every engine.
:class:`repro.net.monitors.SpecMonitor` is the same automaton fed one
row at a time, for a reader that holds no trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SpecificationViolation
from repro.types import RequestState

__all__ = ["Violation", "SpecVerdict", "Automaton", "drive"]


def drive(automaton, trace):
    """Feed a finished trace's rows of ``automaton.KINDS`` and
    ``automaton.tag`` to ``automaton`` (the kind index streams them; no
    other row is visited)."""
    step, tag = automaton.step, automaton.tag
    for time, kind, process, data in trace.scan(*automaton.KINDS):
        if data.get("tag") == tag:
            step(time, kind, process, data)
    return automaton


@dataclass(frozen=True)
class Violation:
    """One violated property instance."""

    prop: str
    detail: str
    time: int | None = None
    process: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" at p{self.process}" if self.process is not None else ""
        when = f" (t={self.time})" if self.time is not None else ""
        return f"[{self.prop}]{where}{when}: {self.detail}"


@dataclass
class SpecVerdict:
    """Outcome of checking one specification over one execution."""

    spec: str
    violations: list[Violation] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    #: Rows a :class:`repro.net.monitors.SpecMonitor` fed the automaton
    #: (0 on a finished-trace verdict, which nothing observed).
    events_observed: int = 0
    #: The automaton whose ``finish`` built this verdict, so a by-product
    #: of the same pass (PIF's waves) is read off it instead of driving
    #: the trace again.  Not part of the verdict's value.
    automaton: Any = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation_time(self) -> int | None:
        """Tick of the earliest violation (for a liveness residue: the
        tick the unanswered request / undecided computation started)."""
        return min(
            (v.time for v in self.violations if v.time is not None), default=None)

    def add(self, prop: str, detail: str, *, time: int | None = None,
            process: int | None = None) -> None:
        self.violations.append(
            Violation(prop=prop, detail=detail, time=time, process=process)
        )

    def add_unanswered(self, prop: str, since: Mapping[int, int], detail: str) -> None:
        """One ``prop`` residue per process still in ``since`` (pid → tick)."""
        for pid, t in sorted(since.items()):
            self.add(prop, detail.format(t=t), time=t, process=pid)

    def add_still_in(self, final_requests: Mapping[int, RequestState] | None) -> None:
        """Termination of even never-started computations (Specifications 1
        and 2): at the end of a sufficiently long run nobody is still In."""
        for pid, state in sorted((final_requests or {}).items()):
            if state is RequestState.IN:
                self.add(
                    "Termination",
                    "computation (possibly never started) still In at end of run",
                    process=pid)

    def by_property(self, prop: str) -> list[Violation]:
        return [v for v in self.violations if v.prop == prop]

    def property_ok(self, prop: str) -> bool:
        return not self.by_property(prop)

    def require(self) -> "SpecVerdict":
        """Raise :class:`SpecificationViolation` unless the verdict is clean."""
        if not self.ok:
            first = self.violations[0]
            raise SpecificationViolation(
                f"{self.spec}/{first.prop}",
                f"{first.detail} (+{len(self.violations) - 1} more)",
            )
        return self

    def summary(self) -> str:
        if self.ok:
            return f"{self.spec}: OK ({self.info})"
        first = self.first_violation_time
        lines = [
            f"{self.spec}: {len(self.violations)} violation(s)"
            + ("" if first is None else f", first at t={first}")
        ]
        lines.extend(f"  {v}" for v in self.violations[:10])
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


class Automaton:
    """What Specifications 1–3 share: the committed violations, the table
    of pending requests behind every Start clause (Hypothesis 1 makes at
    most one request outstanding per process, so the first REQUEST's tick
    is the one kept) and the verdict ``finish`` starts from.  A subclass
    names itself (``NAME``) and the event kinds it consumes (``KINDS``)."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.violations: list[Violation] = []
        self._pending: dict[int, int] = {}

    def _flag(self, prop: str, detail: str, time: int | None, process: int) -> None:
        self.violations.append(Violation(prop, detail, time, process))

    def _verdict(self, **info: Any) -> SpecVerdict:
        return SpecVerdict(f"{self.NAME}[{self.tag}]", list(self.violations), info,
                           automaton=self)
