"""The specification automata must detect violations: synthetic-trace tests.

A checker that always says OK would vacuously 'verify' the protocols, so
every property gets a hand-built violating trace.  The traces live in one
table (``tests/spec_corpus.py``) and every one is judged through both
drivers of the automaton — ``check_*`` over the finished trace and a
``SpecMonitor`` fed the rows one at a time — which must return the same
violation list; ``tests/data/spec_verdicts.json`` pins the per-property counts the
hand-coded checkers returned before the automata replaced them.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.sim.trace import EventKind as K
from repro.spec.mutex_spec import cs_intervals, service_order
from repro.spec.pif_spec import PifAutomaton, check_pif
from repro.spec.waves import extract_waves

import spec_corpus
from spec_corpus import CASES, check_case, live_case, record, trace_of

DRIVERS = {"finished-trace": check_case, "live-trace": live_case}
RECORDED = json.loads(spec_corpus.VERDICTS_PATH.read_text())

#: Where the automata deliberately differ from the recorded verdicts of the
#: old offline checkers: the three traces on which offline and online used
#: to disagree, each resolved to one reading (docs/async.md), and the one
#: consequence of counting Decision per offending acknowledgment.
DELIBERATE = {
    # (a) event order decides: p2's entry is emitted while p1 is inside.
    "drift-a-same-tick-enter-before-exit": {"Correctness": 1},
    # (b) one Decision violation per offending acknowledgment: the two
    # extra acknowledgments from p3 are two violations, not one.
    "pif-triple-ack": {"Decision": 2},
}


def judged(name: str):
    """The verdict of crafted case ``name`` — through both drivers, which
    must agree violation for violation."""
    case = CASES[name]
    offline, live = check_case(case), live_case(case)
    assert offline.violations == live.violations
    assert offline.info == live.info
    return offline


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("name", CASES)
def test_crafted_case_reproduces_its_recorded_verdict(name, driver):
    expected = dict(RECORDED["crafted"][name])
    if name in DELIBERATE:
        expected["violations"] = DELIBERATE[name]
    assert record(DRIVERS[driver](CASES[name])) == expected


@pytest.fixture(scope="module")
def simulated():
    return dict(spec_corpus.simulated())


def test_simulated_corpus_is_the_recorded_one(simulated):
    assert set(simulated) == set(RECORDED["simulated"])
    assert any(e["violations"] for e in RECORDED["simulated"].values())


@pytest.mark.parametrize("name", RECORDED["simulated"])
def test_simulated_run_reproduces_its_recorded_verdict(name, simulated):
    """Baselines, ablations and out-of-model fault runs: the automata
    return the old checkers' counts, through both drivers."""
    call = simulated[name]
    expected = RECORDED["simulated"][name]
    offline = spec_corpus.checker(call.spec)(call.trace, *call.args, **call.kwargs)
    live = spec_corpus.live_recorded(call)
    assert offline.violations == live.violations
    assert offline.info == live.info
    assert len(call.trace) == expected["rows"]
    assert record(offline) == {
        "violations": expected["violations"], "info": expected["info"]}


class TestResolvedReadings:
    """The three traces the two old spellings judged differently."""

    def test_event_order_decides_mutual_exclusion(self):
        """(a) p2's CS_ENTER at t=5 is emitted before p1's CS_EXIT at t=5:
        one configuration holds two occupants — a violation, whatever a
        strict comparison of the ticks says."""
        verdict = judged("drift-a-same-tick-enter-before-exit")
        assert [v.prop for v in verdict.violations] == ["Correctness"]
        assert verdict.violations[0].time == 5
        assert judged("me-sequential").ok  # exit emitted first: no overlap

    def test_one_decision_violation_per_offending_acknowledgment(self):
        """(b) an acknowledgment generated after the DECIDE, on the decide
        tick, is one Decision violation, committed at that row."""
        verdict = judged("drift-b-ack-after-decide-same-tick")
        assert [v.prop for v in verdict.violations] == ["Decision"]
        assert "after" in verdict.violations[0].detail
        assert len(judged("pif-duplicate-ack").by_property("Decision")) == 1
        assert len(judged("pif-triple-ack").by_property("Decision")) == 2

    def test_start_is_about_starting(self):
        """(c) REQUEST then DECIDE with no START between: the request was
        never *started*, on either driver."""
        verdict = judged("drift-c-decide-without-start")
        assert [v.prop for v in verdict.violations] == ["Start"]


class TestPifChecker:
    def test_good_trace_passes(self):
        assert judged("pif-good").ok

    def test_detects_missing_start(self):
        assert not judged("pif-missing-start").property_ok("Start")

    def test_detects_unfinished_wave(self):
        assert not judged("pif-unfinished-wave").property_ok("Termination")

    def test_unfinished_wave_tolerated_when_requested(self):
        assert judged("pif-unfinished-wave-tolerated").property_ok("Termination")

    def test_detects_still_in_at_end(self):
        assert not judged("pif-still-in-at-end").property_ok("Termination")

    def test_detects_missing_broadcast_receipt(self):
        verdict = judged("pif-missing-broadcast-receipt")
        assert not verdict.property_ok("Correctness")

    def test_detects_corrupted_payload(self):
        assert not judged("pif-corrupted-payload").property_ok("Correctness")

    def test_detects_missing_ack(self):
        verdict = judged("pif-missing-ack")
        assert not verdict.property_ok("Correctness")
        assert any("acknowledgment from 3" in v.detail for v in verdict.violations)

    def test_detects_duplicate_ack(self):
        assert not judged("pif-duplicate-ack").property_ok("Decision")

    def test_garbage_events_without_wave_ignored(self):
        assert judged("pif-garbage-without-wave").ok

    def test_other_tags_invisible(self):
        assert judged("pif-other-tag-invisible").ok

    def test_neighbour_scoped_reach(self):
        assert judged("pif-ring-scoped").ok
        verdict = judged("pif-ring-scoped-missing-neighbour")
        assert len(verdict.by_property("Correctness")) == 2


class TestWaveExtraction:
    def test_extracts_start_decide_pairs(self):
        waves = extract_waves(trace_of(spec_corpus.GOOD_PIF), "pif")
        assert len(waves) == 1
        wave = waves[0]
        assert (wave.pid, wave.wave, wave.payload) == (1, spec_corpus.W, "m")
        assert wave.decided
        assert (wave.start_time, wave.decide_time) == (1, 8)
        assert wave.duration == 7
        # The receipts of 2 and 3 attach to the wave: judged against them,
        # it holds, and without 3's it names 3 twice.
        assert check_pif(trace_of(spec_corpus.GOOD_PIF), "pif", (1, 2, 3)).ok
        verdict = check_pif(trace_of(
            r for r in spec_corpus.GOOD_PIF if r[2] != 3 and r[3].get("sender") != 3
        ), "pif", (1, 2, 3))
        assert [(v.prop, v.process) for v in verdict.violations] == [
            ("Correctness", 3), ("Correctness", 1)]

    def test_a_decided_wave_keeps_no_receipts(self):
        # Only undecided waves hold obligations: at n = 64, W decided
        # waves cost the automaton well under 1 KiB each.
        n, waves = 64, 400
        pids = tuple(range(n))
        automaton = PifAutomaton("pif", pids)
        step = automaton.step
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for w in range(waves):
                pid, wid, t = w % n, (w % n, w), 10 * w
                step(t, K.START, pid, {"tag": "pif", "wave": wid, "payload": "m"})
                for q in pids:
                    if q != pid:
                        step(t + 1, K.RECEIVE_BRD, q,
                             {"tag": "pif", "sender": pid, "payload": "m", "wave": wid})
                        step(t + 2, K.RECEIVE_FCK, pid,
                             {"tag": "pif", "sender": q, "payload": "f", "wave": wid})
                step(t + 3, K.DECIDE, pid, {"tag": "pif", "wave": wid})
            per_wave = (tracemalloc.get_traced_memory()[0] - before) / waves
        finally:
            tracemalloc.stop()
        assert automaton.finish().ok
        assert len(automaton.waves) == waves
        assert per_wave < 1024, f"{per_wave:.0f} B a decided wave"

    def test_undecided_wave(self):
        wave = extract_waves(CASES["pif-unfinished-wave"].trace(), "pif")[0]
        assert not wave.decided
        assert wave.duration is None

    @pytest.mark.parametrize("name", ["pif-good", "pif-unfinished-wave"])
    def test_a_verdict_carries_the_waves_of_its_pass(self, name):
        # The runner's one pass: the waves read off a check_pif verdict
        # are the ones a second drive over the trace would extract.
        case = CASES[name]
        waves = extract_waves(check_case(case))
        assert waves and waves == extract_waves(case.trace(), "pif")


class TestIdlChecker:
    def test_good_trace_passes(self):
        assert judged("idl-good").ok

    def test_detects_wrong_minimum(self):
        assert not judged("idl-wrong-minimum").property_ok("Correctness")

    def test_detects_wrong_table(self):
        """One wrong ``id_tab`` entry is flagged by both drivers."""
        verdict = judged("idl-wrong-table")
        assert [v.prop for v in verdict.violations] == ["Correctness"]
        assert "ID-Tab[3]=99" in verdict.violations[0].detail

    def test_never_started_decides_unchecked(self):
        assert judged("idl-never-started-decide").ok  # no start -> no guarantee

    def test_detects_unserved_request(self):
        assert not judged("idl-unserved-request").property_ok("Start")

    def test_neighbour_scoped_truth(self):
        assert judged("idl-ring-scoped").ok


class TestMutexChecker:
    def test_overlap_between_requesters_detected(self):
        verdict = judged("me-requesters-overlap")
        assert not verdict.property_ok("Correctness")
        assert "overlap" in verdict.violations[0].detail

    def test_requester_vs_zombie_overlap_detected(self):
        assert not judged("me-requester-vs-zombie").property_ok("Correctness")

    def test_zombie_only_overlap_tolerated(self):
        """Footnote 1: non-requesting occupancies carry no guarantee."""
        assert judged("me-zombie-only-overlap").ok

    def test_sequential_sections_pass(self):
        assert judged("me-sequential").ok

    def test_open_interval_overlaps_via_horizon(self):
        """An occupant that never exits conflicts with every later entry."""
        assert not judged("me-open-interval").property_ok("Correctness")

    def test_cross_cluster_overlap_tolerated(self):
        assert judged("net-mutex-cross-cluster").ok
        assert not judged("net-mutex-same-cluster").ok

    def test_unserved_request_detected(self):
        assert not judged("me-unserved-request").property_ok("Start")

    def test_cs_intervals_reconstruction(self):
        trace = CASES["me-intervals"].trace()
        intervals = cs_intervals(trace, "me")
        assert len(intervals) == 2
        assert intervals[0].exit == 4
        assert intervals[1].exit is None
        assert not intervals[1].requested
        assert service_order(trace, "me") == [1]


class TestVerdictApi:
    def test_summary_lists_violations(self):
        summary = judged("pif-missing-start").summary()
        assert "Start" in summary and "first at t=0" in summary

    def test_by_property_filtering(self):
        verdict = judged("pif-missing-start")
        assert len(verdict.by_property("Start")) == 1
        assert verdict.by_property("Correctness") == []

    def test_first_violation_time_and_events_observed(self):
        assert judged("pif-corrupted-payload").first_violation_time == 3
        assert judged("pif-good").first_violation_time is None
        # Only a live trace observes: the rows of the automaton's kinds and tag.
        assert live_case(CASES["pif-other-tag-invisible"]).events_observed == 7
        assert check_case(CASES["pif-good"]).events_observed == 0


def test_drive_is_handed_only_the_rows_it_steps():
    """Rows of the automaton's kinds that carry another instance's tag
    (most of them here, as the embedded PIF and IDL rows of an ME trial)
    never reach ``drive``: the rows the trace hands it are the rows it
    steps, so no payload dict is built for another instance."""
    from repro.sim.trace import Trace
    from repro.spec.base import drive
    from repro.spec.mutex_spec import MutexAutomaton

    class Handed(Trace):
        def scan(self, *kinds, **tag):
            self.handed = list(super().scan(*kinds, **tag))
            return iter(self.handed)

    trace = Handed()
    for t in range(60):
        trace.emit(t, K.REQUEST, t % 4, tag="pif", payload=t)
        trace.emit(t, K.START, t % 4, tag="idl")
        if t % 10 == 0:
            trace.emit(t, K.REQUEST, t % 4, tag="me")
    stepped = []
    automaton = MutexAutomaton("me")
    step = automaton.step
    automaton.step = lambda *row: stepped.append(row) or step(*row)
    drive(automaton, trace)
    assert trace.handed == stepped
    assert [row[:3] for row in stepped] == [
        (t, K.REQUEST, t % 4) for t in range(0, 60, 10)]


def test_extract_waves_without_a_tag_reads_the_untagged_rows():
    """``extract_waves(trace)`` drives the automaton of tag None, which
    sees the rows whose ``data.get("tag")`` is None — never the rows of a
    tagged instance, however many instances share the trace."""
    from repro.sim.trace import Trace

    trace = Trace()
    for t, tag in enumerate(("a", "b", None, "a")):
        tagged = {} if tag is None else {"tag": tag}
        trace.emit(10 * t, K.START, t, wave=(t, 0), payload=t, **tagged)
        trace.emit(10 * t + 5, K.DECIDE, t, wave=(t, 0), **tagged)
    assert [(w.pid, w.decide_time) for w in extract_waves(trace)] == [(2, 25)]
    assert [w.pid for w in extract_waves(trace, "a")] == [0, 3]
