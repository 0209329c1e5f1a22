"""Trace-representation regression tests: columnar store vs legacy store.

The PR that introduced the columnar, index-maintaining trace store
(``repro.sim.trace``) must be a pure representation change: emission order,
event content, the canonical trace hash and every spec verdict have to be
identical to the historical list-of-frozen-dataclasses store.  This module
keeps a faithful copy of that legacy store (`LegacyTrace`, storage and cost
model of the pre-overhaul implementation, plus linear-scan shims for the
streaming API the checkers now use), installs it on a serial engine by
assigning ``sim.trace`` after construction (every emitter reads
``sim.trace`` at emit time), and asserts:

* query-by-query equivalence on a synthetic trace,
* canonical hash + spec verdict equality on full E3 trials over
  Complete/Ring/Clustered at n <= 16, for the serial engine running the
  legacy store vs the serial, sharded and async-loopback engines running
  the columnar store.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterator

import pytest
from conftest import trial_spec

from repro.core.pif import PifLayer
from repro.engine import execute
from repro.sim.runtime import Simulator
from repro.sim.trace import EventKind, Trace, TraceEvent, canonical_trace_hash
from repro.spec.pif_spec import check_pif

PIF = trial_spec("pif", 16, seed=0, loss=0.1)

TOPOLOGIES = [None, "ring", "clustered:4"]


class LegacyTrace:
    """The pre-overhaul trace store: a list of frozen TraceEvent objects.

    Kept verbatim in spirit (append a materialized event per emission; every
    query is a linear scan) so regression tests can run the engine against
    the old representation.  The streaming shims at the bottom adapt the old
    storage to the scan/row API today's spec checkers consume — still as
    linear scans, faithful to the legacy cost model.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def emit(self, time: int, kind: str, process: int | None, **data: Any) -> None:
        self._events.append(TraceEvent(time=time, kind=kind, process=process, data=data))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self._events[index]

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def for_process(self, pid: int, *kinds: str) -> list[TraceEvent]:
        wanted = set(kinds) if kinds else None
        return [
            e
            for e in self._events
            if e.process == pid and (wanted is None or e.kind in wanted)
        ]

    def between(self, t0: int, t1: int) -> list[TraceEvent]:
        return [e for e in self._events if t0 <= e.time <= t1]

    def where(self, **fields: Any) -> list[TraceEvent]:
        return [
            e
            for e in self._events
            if all(e.data.get(k) == v for k, v in fields.items())
        ]

    def first(self, kind: str, **fields: Any) -> TraceEvent | None:
        for e in self._events:
            if e.kind == kind and all(e.data.get(k) == v for k, v in fields.items()):
                return e
        return None

    def last(self, kind: str, **fields: Any) -> TraceEvent | None:
        for e in reversed(self._events):
            if e.kind == kind and all(e.data.get(k) == v for k, v in fields.items()):
                return e
        return None

    def extend(self, events) -> None:
        self._events.extend(events)

    # -- streaming shims (legacy cost model: linear scans) ------------------

    def scan(self, *kinds: str):
        wanted = set(kinds) if kinds else None
        for e in self._events:
            if wanted is None or e.kind in wanted:
                yield e.time, e.kind, e.process, e.data

    def kind_rows(self, kind: str) -> list[int]:
        return [i for i, e in enumerate(self._events) if e.kind == kind]

    def data_at(self, row: int) -> dict[str, Any]:
        return self._events[row].data


class LegacySimulator(Simulator):
    """Serial engine wired to the legacy trace store."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace = LegacyTrace()


def _run_serial_trial(sim_cls, n, topology, seed):
    """The serial backend's trial shape, parameterized over the engine class."""
    from repro.analysis.runner import DRAIN_TICKS
    from repro.core.requests import RequestDriver
    from repro.sim.channel import BernoulliLoss

    sim = sim_cls(
        n,
        lambda h: h.register(PifLayer("pif")),
        topology=topology,
        seed=seed,
        loss=BernoulliLoss(0.1),
    )
    sim.scramble(seed=seed ^ 0x5EED)
    drv = RequestDriver(sim, **PIF.driver)
    assert sim.run(2_000_000, until=lambda s: drv.done)
    sim.run(sim.now + DRAIN_TICKS)
    finals = {p: sim.layer(p, "pif").request for p in sim.pids}
    return sim, finals


def _verdict_key(verdict):
    return (
        verdict.ok,
        [(v.prop, v.detail, v.time, v.process) for v in verdict.violations],
        verdict.info,
    )


def make_synthetic(trace):
    trace.emit(0, EventKind.REQUEST, 1, tag="pif")
    trace.emit(2, EventKind.START, 1, tag="pif", wave=(1, 1), payload="m")
    trace.emit(5, EventKind.RECEIVE_BRD, 2, tag="pif", sender=1, payload="m")
    trace.emit(5, EventKind.RECEIVE_BRD, 3, tag="pif", sender=1, payload="m")
    trace.emit(8, EventKind.RECEIVE_FCK, 1, tag="pif", sender=2)
    trace.emit(8, EventKind.CS_ENTER, 2, tag="me", requested=True)
    trace.emit(9, EventKind.DECIDE, 1, tag="pif", wave=(1, 1))
    trace.emit(12, EventKind.CS_EXIT, 2, tag="me")
    return trace


class TestQueryEquivalence:
    """Every classic query answers identically on both stores."""

    def setup_method(self):
        self.new = make_synthetic(Trace())
        self.old = make_synthetic(LegacyTrace())

    @staticmethod
    def _cmp(a, b):
        assert [(e.time, e.kind, e.process, e.data) for e in a] == [
            (e.time, e.kind, e.process, e.data) for e in b
        ]

    def test_iteration_and_events(self):
        self._cmp(self.new, self.old)
        self._cmp(self.new.events, self.old.events)
        assert len(self.new) == len(self.old)

    def test_of_kind(self):
        for kinds in [(EventKind.START,), (EventKind.START, EventKind.DECIDE),
                      (EventKind.RECEIVE_BRD, EventKind.CS_ENTER), ("nope",)]:
            self._cmp(self.new.of_kind(*kinds), self.old.of_kind(*kinds))

    def test_for_process(self):
        for pid in (1, 2, 99):
            self._cmp(self.new.for_process(pid), self.old.for_process(pid))
            self._cmp(
                self.new.for_process(pid, EventKind.RECEIVE_BRD),
                self.old.for_process(pid, EventKind.RECEIVE_BRD),
            )

    def test_between_and_where(self):
        self._cmp(self.new.between(2, 8), self.old.between(2, 8))
        self._cmp(self.new.between(99, 100), self.old.between(99, 100))
        self._cmp(self.new.where(sender=1), self.old.where(sender=1))
        self._cmp(self.new.where(tag="me"), self.old.where(tag="me"))

    def test_first_and_last(self):
        for kind, fields in [
            (EventKind.RECEIVE_BRD, {}),
            (EventKind.RECEIVE_BRD, {"sender": 1}),
            (EventKind.DECIDE, {"wave": (1, 1)}),
            (EventKind.NOTE, {}),
        ]:
            new_first = self.new.first(kind, **fields)
            old_first = self.old.first(kind, **fields)
            assert (new_first is None) == (old_first is None)
            if new_first is not None:
                assert (new_first.time, new_first.data) == (old_first.time, old_first.data)
            new_last = self.new.last(kind, **fields)
            old_last = self.old.last(kind, **fields)
            assert (new_last is None) == (old_last is None)
            if new_last is not None:
                assert (new_last.time, new_last.data) == (old_last.time, old_last.data)

    def test_canonical_hash_matches(self):
        assert canonical_trace_hash(self.new) == canonical_trace_hash(self.old)
        assert self.new.canonical_hash() == canonical_trace_hash(self.old)

    def test_non_monotone_between(self):
        new, old = Trace(), LegacyTrace()
        for t in (5, 2, 9, 2, 7):
            new.emit(t, EventKind.NOTE, 1)
            old.emit(t, EventKind.NOTE, 1)
        assert [e.time for e in new.between(2, 7)] == [
            e.time for e in old.between(2, 7)
        ]


class TestEngineRegression:
    """Full trials: legacy store and columnar store agree bit for bit."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_serial_hash_and_verdicts_match_legacy(self, topology):
        legacy_sim, legacy_finals = _run_serial_trial(
            LegacySimulator, 16, topology, seed=0
        )
        new_sim, new_finals = _run_serial_trial(Simulator, 16, topology, seed=0)
        assert isinstance(legacy_sim.trace, LegacyTrace)
        assert isinstance(new_sim.trace, Trace)
        assert canonical_trace_hash(legacy_sim.trace) == canonical_trace_hash(
            new_sim.trace
        )
        assert legacy_finals == new_finals
        neighbors = (
            None
            if new_sim.topology.is_complete
            else {p: new_sim.topology.neighbors(p) for p in new_sim.pids}
        )
        legacy_verdict = check_pif(
            legacy_sim.trace, "pif", legacy_sim.pids,
            final_requests=legacy_finals, neighbors=neighbors,
        )
        new_verdict = check_pif(
            new_sim.trace, "pif", new_sim.pids,
            final_requests=new_finals, neighbors=neighbors,
        )
        assert _verdict_key(legacy_verdict) == _verdict_key(new_verdict)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_loopback_hash_matches_legacy(self, topology):
        legacy_sim, _ = _run_serial_trial(LegacySimulator, 16, topology, seed=0)
        run = execute(replace(PIF, topology=topology, engine="async"))
        assert canonical_trace_hash(run.trace) == canonical_trace_hash(
            legacy_sim.trace
        )

    def test_sharded_hash_matches_legacy(self):
        legacy_sim, _ = _run_serial_trial(
            LegacySimulator, 16, "clustered:4", seed=0
        )
        run = execute(replace(PIF, topology="clustered:4", engine="sharded"))
        assert canonical_trace_hash(run.trace) == canonical_trace_hash(
            legacy_sim.trace
        )
