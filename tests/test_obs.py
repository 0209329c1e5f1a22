"""Tests for repro.obs: metrics registry, spans, Chrome-trace export.

The cross-engine guarantee — enabling the instruments never perturbs a
deterministic run — lives in ``tests/test_obs_equivalence.py``; this
module covers the building blocks: the registry and its no-op twin, the
span recorder, the Chrome trace-event exporter (against a committed
golden file), the per-trial recorder's worker shipping, and the
``repro obs`` summary command.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    ObsRecorder,
    SpanRecorder,
    chrome_trace,
    summarize_obs_file,
    validate_chrome_trace,
)
from repro.obs.recorder import indexed_path
from repro.sim.runtime import Simulator

GOLDEN = Path(__file__).parent / "data" / "chrome_trace_golden.json"


def build_pif(host):
    from repro.core.pif import PifLayer

    host.register(PifLayer("pif"))


# -- MetricsRegistry ------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        m.inc("b", 2)
        assert m.counters == {"a": 5, "b": 2}

    def test_zero_increment_records_nothing(self):
        m = MetricsRegistry()
        m.inc("a", 0)
        assert m.counters == {}

    def test_gauge_keeps_high_water(self):
        m = MetricsRegistry()
        m.gauge_max("depth", 3)
        m.gauge_max("depth", 9)
        m.gauge_max("depth", 5)
        assert m.gauges == {"depth": 9}

    def test_histogram_summarizes_count_total_min_max(self):
        m = MetricsRegistry()
        for value in (2.0, 8.0, 5.0):
            m.observe("wait", value)
        assert m.hists == {"wait": [3, 15.0, 2.0, 8.0]}

    def test_snapshot_is_a_copy(self):
        m = MetricsRegistry()
        m.inc("a")
        snap = m.snapshot()
        m.inc("a")
        assert snap["counters"] == {"a": 1}
        assert m.counters == {"a": 2}

    def test_merge_combines_worker_snapshots(self):
        coord, worker = MetricsRegistry(), MetricsRegistry()
        coord.inc("sends", 10)
        coord.gauge_max("occ", 4)
        coord.observe("wait", 1.0)
        worker.inc("sends", 7)
        worker.inc("drops", 2)
        worker.gauge_max("occ", 9)
        worker.observe("wait", 3.0)
        worker.observe("wait", 0.5)
        coord.merge(worker.snapshot())
        assert coord.counters == {"sends": 17, "drops": 2}
        assert coord.gauges == {"occ": 9}
        assert coord.hists == {"wait": [3, 4.5, 0.5, 3.0]}

    def test_merge_is_associative_enough_for_many_workers(self):
        total = MetricsRegistry()
        for shard in range(4):
            w = MetricsRegistry()
            w.inc("events", shard + 1)
            w.observe("slice", float(shard))
            total.merge(w.snapshot())
        assert total.counters == {"events": 10}
        assert total.hists["slice"] == [4, 6.0, 0.0, 3.0]


class TestNullMetrics:
    def test_same_surface_stores_nothing(self):
        null = NullMetrics()
        null.inc("a", 5)
        null.gauge_max("b", 9)
        null.observe("c", 1.0)
        null.merge({"counters": {"a": 3}, "gauges": {}, "hists": {}})
        assert null.snapshot() == {"counters": {}, "gauges": {}, "hists": {}}

    def test_shared_singleton_is_disabled(self):
        assert NULL_METRICS.enabled is False
        assert MetricsRegistry().enabled is True

    def test_null_registry_carries_no_per_instance_state(self):
        # The no-op twin is the metrics-off hot path: no __dict__, no
        # slots — an inc() can touch nothing but the call frame.
        assert NullMetrics.__slots__ == ()

    def test_collect_obs_runs_unbranched_against_null(self):
        # Engines fold their passive counters through collect_obs
        # unconditionally; with the null sink that must be a no-op.
        sim = Simulator(3, build_pif, seed=0)
        sim.scramble(seed=0)
        sim.run(50_000)
        sim.collect_obs(NULL_METRICS)
        assert NULL_METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "hists": {},
        }

    def test_collect_obs_lands_in_real_registry(self):
        sim = Simulator(3, build_pif, seed=0)
        sim.scramble(seed=0)
        sim.run(50_000)
        metrics = MetricsRegistry()
        sim.collect_obs(metrics)
        assert metrics.counters["scheduler.pops"] > 0
        assert metrics.counters["channel.sent"] > 0
        assert metrics.counters["channel.delivered"] > 0
        # An idle PIF system spends most of 50 000 ticks dormant.
        assert 0 < metrics.counters["process.activations_dormant"] \
            < metrics.counters["process.activations"]
        assert any(name.startswith("channel.occupancy_high[")
                   for name in metrics.gauges)


# -- spans + Chrome-trace export ------------------------------------------


def fixed_spans():
    """A deterministic two-lane span set (coordinator + one worker)."""
    coord = SpanRecorder(pid=0)
    coord.record("scramble", "phase", 100.0, 100.25)
    coord.record("round", "round", 100.25, 100.5,
                 args={"round": 0, "target": 16})
    worker = SpanRecorder(pid=1)
    worker.record("compute", "round", 100.26, 100.4, args={"round": 0})
    worker.record("barrier_wait", "round", 100.4, 100.45, tid=1)
    coord.extend(worker.payload())
    return coord


class TestSpanRecorder:
    def test_record_bakes_pid_and_duration(self):
        rec = SpanRecorder(pid=3)
        rec.record("x", "phase", 10.0, 12.5)
        assert rec.spans == [("x", "phase", 3, 0, 10.0, 2.5, None)]

    def test_span_context_manager_records_on_exit(self):
        rec = SpanRecorder()
        with rec.span("work", "phase", round=7):
            pass
        (name, cat, pid, tid, t0, dur, args) = rec.spans[0]
        assert (name, cat, pid, tid) == ("work", "phase", 0, 0)
        assert dur >= 0
        assert args == {"round": 7}

    def test_extend_merges_worker_payloads(self):
        spans = fixed_spans().spans
        assert {s[2] for s in spans} == {0, 1}
        assert len(spans) == 4


class TestChromeTrace:
    def test_matches_committed_golden(self):
        # The exporter's output format is a compatibility contract with
        # Perfetto / chrome://tracing — lock it with a golden file.
        doc = chrome_trace(fixed_spans().spans,
                           {0: "coordinator", 1: "shard0"})
        assert doc == json.loads(GOLDEN.read_text(encoding="utf-8"))

    def test_golden_is_valid(self):
        assert validate_chrome_trace(
            json.loads(GOLDEN.read_text(encoding="utf-8"))) == []

    def test_rebases_to_earliest_span(self):
        doc = chrome_trace(fixed_spans().spans)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == 0
        assert all(e["ts"] >= 0 for e in complete)

    def test_sorted_by_time_then_lane(self):
        doc = chrome_trace(fixed_spans().spans)
        stamps = [(e["ts"], e["pid"]) for e in doc["traceEvents"]
                  if e["ph"] == "X"]
        assert stamps == sorted(stamps)

    def test_empty_span_set_is_still_valid(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        assert validate_chrome_trace(doc) == []


class TestValidateChromeTrace:
    def test_rejects_non_document(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_flags_bad_phase_and_negative_duration(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 0, "tid": 0},
            {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 1, "dur": -2},
            {"name": "c", "ph": "X", "pid": "zero", "tid": 0, "ts": 0,
             "dur": 0},
        ]}
        problems = validate_chrome_trace(doc)
        assert len(problems) == 3


# -- ObsRecorder ----------------------------------------------------------


class TestObsRecorder:
    def test_worker_payload_round_trips_through_merge(self):
        worker = ObsRecorder(pid=2, name="shard1")
        worker.metrics.inc("scheduler.pops", 11)
        worker.spans.record("compute", "round", 5.0, 5.5)
        coord = ObsRecorder()
        coord.metrics.inc("scheduler.pops", 3)
        coord.merge_worker(worker.worker_payload())
        assert coord.metrics.counters["scheduler.pops"] == 14
        assert coord.process_names == {0: "coordinator", 2: "shard1"}
        assert any(s[2] == 2 for s in coord.spans.spans)

    def test_metrics_doc_is_versioned_with_context(self):
        rec = ObsRecorder()
        rec.metrics.inc("a", 1)
        doc = rec.metrics_doc({"engine": "serial", "seed": 0})
        assert doc["kind"] == "repro-obs-metrics"
        assert doc["version"] == 1
        assert doc["context"] == {"engine": "serial", "seed": 0}
        assert doc["counters"] == {"a": 1}

    def test_write_and_summarize(self, tmp_path):
        rec = ObsRecorder()
        rec.metrics.inc("channel.sends", 42)
        rec.metrics.observe("sync.barrier_wait_s", 0.01)
        rec.spans.record("serve", "phase", 1.0, 2.0)
        metrics_path = tmp_path / "metrics.json"
        timeline_path = tmp_path / "timeline.json"
        rec.write(metrics_path, timeline_path, context={"engine": "serial"})

        metrics_text = summarize_obs_file(metrics_path)
        assert "channel.sends" in metrics_text
        assert "engine=serial" in metrics_text
        assert "sync.barrier_wait_s" in metrics_text
        timeline_text = summarize_obs_file(timeline_path)
        assert "1 spans" in timeline_text
        assert "serve" in timeline_text

    def test_write_creates_missing_parent_directories(self, tmp_path):
        rec = ObsRecorder()
        rec.metrics.inc("a", 1)
        target = tmp_path / "runs" / "today" / "metrics.json"
        rec.write(target, None)
        assert json.loads(target.read_text())["counters"] == {"a": 1}

    def test_disabled_pillars_use_null_sink(self):
        rec = ObsRecorder(metrics=False, timeline=False)
        assert rec.metrics is NULL_METRICS
        assert rec.timeline_enabled is False


def test_indexed_path_suffixes_before_extension(tmp_path):
    assert indexed_path("out/metrics.json", "seed3") == \
        Path("out/metrics.seed3.json")
    assert indexed_path("metrics", "ring-seed0") == \
        Path("metrics.ring-seed0.json")


# -- CLI integration ------------------------------------------------------


class TestObsCli:
    def test_trial_writes_obs_files_and_obs_summarizes(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        timeline = tmp_path / "timeline.json"
        assert main(["pif", "--n", "3", "--seeds", "0", "--loss", "0",
                     "--requests", "1",
                     "--metrics", str(metrics),
                     "--timeline", str(timeline)]) == 0
        capsys.readouterr()
        doc = json.loads(metrics.read_text(encoding="utf-8"))
        assert doc["kind"] == "repro-obs-metrics"
        assert doc["context"]["engine"] == "serial"
        assert validate_chrome_trace(
            json.loads(timeline.read_text(encoding="utf-8"))) == []

        assert main(["obs", str(metrics), str(timeline)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "process.activations_dormant" in out
        assert "(activations: " in out and " dormant, " in out
        assert "timeline" in out

    def test_seed_sweep_indexes_files_per_seed(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["pif", "--n", "3", "--seeds", "0", "1", "--loss", "0",
                     "--requests", "1", "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert (tmp_path / "metrics.seed0.json").exists()
        assert (tmp_path / "metrics.seed1.json").exists()
        assert not metrics.exists()
