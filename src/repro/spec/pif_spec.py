"""Specification 1 — PIF-Execution (Section 4.1), as one streaming automaton.

An execution satisfies the PIF specification iff:

* **Start** — when there is a request for ``p`` to broadcast, ``p`` starts a
  computation in finite time;
* **Correctness** — during any computation started by ``p`` for ``m``: every
  other process receives ``m`` and ``p`` receives acknowledgments for ``m``
  from every other process;
* **Termination** — any computation (even non-started) terminates in finite
  time;
* **Decision** — when a started computation terminates at ``p``, ``p``
  decides taking all (and only) acknowledgments of its last broadcast into
  account.

:class:`PifAutomaton` is the only spelling of these clauses; ``check_pif``
and ``extract_waves`` drive it over a finished trace,
:class:`repro.net.monitors.SpecMonitor` one row at a time.  A trial's
runner drives it once: ``extract_waves(verdict)`` reads the waves of the
``check_pif`` pass that built ``verdict``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.sim.trace import EventKind, Trace
from repro.spec.base import Automaton, SpecVerdict, drive
from repro.types import RequestState

__all__ = ["Wave", "PifAutomaton", "check_pif", "extract_waves"]

# ``step`` runs once per receive event of a trial: plain globals, not
# attribute chains.
_REQUEST = EventKind.REQUEST
_START = EventKind.START
_DECIDE = EventKind.DECIDE
_BRD = EventKind.RECEIVE_BRD
_FCK = EventKind.RECEIVE_FCK


@dataclass
class Wave:
    """One started PIF computation, as visible in the trace."""

    pid: int
    wave: tuple[int, int]
    payload: object
    start_time: int
    decide_time: int | None = None
    #: receive-brd of the initiator's messages carrying this wave id up to
    #: its decision, by receiving process: ``(time, payload)``, in order.
    brd_events: dict[int, list[tuple[int, Any]]] = field(default_factory=dict)
    #: receive-fck times carrying this wave id at the initiator up to its
    #: decision, by sender.
    fck_events: dict[int, list[int]] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.decide_time is not None

    @property
    def duration(self) -> int | None:
        if self.decide_time is None:
            return None
        return self.decide_time - self.start_time


class PifAutomaton(Automaton):
    """Specification 1 for the PIF instance ``tag``.

    Local state: per process the pending request, per wave id the
    :class:`Wave` record — the by-product — holding the start/decide pair
    and the receive-brd / receive-fck events whose ``wave`` metadata names
    it (garbage messages carry no wave id and attach to nothing; rows
    without a process belong to nobody's computation).  The global step is
    the DECIDE of a started wave, which judges Correctness and Decision
    against the initiator's reach: ``neighbors[p]`` when given (the wave's
    reach on a non-complete topology), every other process of ``pids``
    otherwise (the paper's complete-graph reading).

    An execution is a *sequence* of configurations, so **event order
    decides, not tick equality**: a wave's computation is the rows from its
    START up to its DECIDE, and a receive-brd after the DECIDE — same tick
    or not — is not "receives ``m`` during the computation".

    **Decision** ("taking all *and only* acknowledgments of its last
    broadcast into account") is one violation per offending
    acknowledgment: each one beyond the first from a peer within the
    computation (committed at the DECIDE) and each one generated for the
    wave after its DECIDE (committed at that row).

    **Start** is about *starting*: a request is discharged by a START at
    the same process and by nothing else — a DECIDE with no START between
    leaves it pending.
    """

    NAME = "PIF"
    KINDS = (_REQUEST, _START, _DECIDE, _BRD, _FCK)

    def __init__(
        self,
        tag: str,
        pids: Iterable[int],
        *,
        neighbors: Mapping[int, Sequence[int]] | None = None,
    ) -> None:
        super().__init__(tag)
        self.pids = tuple(pids)
        self.neighbors = neighbors
        self._waves: dict[tuple[int, int], Wave] = {}

    @property
    def waves(self) -> list[Wave]:
        """Every started computation, by start time."""
        return sorted(self._waves.values(), key=lambda w: w.start_time)

    def _reach(self, pid: int) -> Sequence[int]:
        """Who a wave of ``pid`` must reach (besides ``pid``, if listed)."""
        return self.pids if self.neighbors is None else self.neighbors[pid]

    def step(
        self, time: int, kind: str, process: int | None, data: Mapping[str, Any]
    ) -> None:
        if process is None:
            return
        if kind == _BRD:
            wave = self._waves.get(data.get("wave"))
            if (wave is not None and wave.decide_time is None
                    and data.get("sender") == wave.pid):
                wave.brd_events.setdefault(process, []).append(
                    (time, data.get("payload")))
        elif kind == _FCK:
            wave = self._waves.get(data.get("wave"))
            if wave is None:
                return
            sender = data.get("sender")
            if wave.decide_time is None:
                wave.fck_events.setdefault(sender, []).append(time)
            elif sender != wave.pid and sender in self._reach(wave.pid):
                self._flag(
                    "Decision",
                    f"acknowledgment from {sender} at t={time} arrived after "
                    f"wave {wave.wave} decided at t={wave.decide_time}",
                    time, wave.pid)
        elif kind == _START:
            self._pending.pop(process, None)
            wid = data.get("wave")
            if wid is not None:
                self._waves[wid] = Wave(process, wid, data.get("payload"), time)
        elif kind == _DECIDE:
            wave = self._waves.get(data.get("wave"))
            if wave is not None and wave.decide_time is None:
                wave.decide_time = time
                self._judge(wave)
        else:  # REQUEST
            self._pending.setdefault(process, time)

    def _judge(self, wave: Wave) -> None:
        """Correctness and Decision of ``wave``, at its DECIDE."""
        flag, wid, decided = self._flag, wave.wave, wave.decide_time
        for q in self._reach(wave.pid):
            if q == wave.pid:
                continue
            brds = wave.brd_events.get(q, ())
            if not brds:
                flag("Correctness",
                     f"process {q} never received broadcast of wave {wid} "
                     f"(payload {wave.payload!r})", decided, q)
            for time, payload in brds:
                if payload != wave.payload:
                    flag("Correctness",
                         f"process {q} received corrupted payload "
                         f"{payload!r} != {wave.payload!r}", time, q)
            fcks = wave.fck_events.get(q, ())
            if not fcks:
                flag("Correctness",
                     f"initiator never received acknowledgment from {q} "
                     f"for wave {wid}", decided, wave.pid)
            for time in fcks[1:]:
                flag("Decision",
                     f"acknowledgment from {q} at t={time} counted again for "
                     f"wave {wid}; expected exactly one", time, wave.pid)

    def finish(
        self,
        *,
        final_requests: Mapping[int, RequestState] | None = None,
        require_all_decided: bool = True,
    ) -> SpecVerdict:
        """The verdict so far plus the liveness residues: ``final_requests``
        (pid -> final Request value) enables the Termination check on
        never-started computations; ``require_all_decided`` demands every
        *started* wave decided — off for deliberately truncated runs."""
        waves = self.waves
        verdict = self._verdict(
            waves_started=len(waves),
            waves_decided=sum(1 for w in waves if w.decided))
        verdict.add_unanswered(
            "Start", self._pending, "request at t={t} never followed by a start")
        if require_all_decided:
            for wave in waves:
                if not wave.decided:
                    verdict.add(
                        "Termination",
                        f"wave {wave.wave} started at t={wave.start_time} "
                        f"never decided",
                        time=wave.start_time, process=wave.pid)
        verdict.add_still_in(final_requests)
        return verdict


def check_pif(
    trace: Trace,
    tag: str,
    pids: Iterable[int],
    *,
    final_requests: Mapping[int, RequestState] | None = None,
    require_all_decided: bool = True,
    neighbors: Mapping[int, Sequence[int]] | None = None,
) -> SpecVerdict:
    """Specification 1 over a finished trace (see :class:`PifAutomaton`)."""
    return drive(PifAutomaton(tag, pids, neighbors=neighbors), trace).finish(
        final_requests=final_requests, require_all_decided=require_all_decided)


def extract_waves(source: Trace | SpecVerdict, tag: str | None = None) -> list[Wave]:
    """Every started computation of a PIF instance: the automaton's
    by-product.  From a trace, a fresh automaton of instance ``tag``
    (judged against nobody) is driven over it; from a :func:`check_pif`
    verdict, the waves of the pass that judged it are read — no row is
    visited again."""
    if isinstance(source, SpecVerdict):
        return source.automaton.waves
    return drive(PifAutomaton(tag, ()), source).waves
