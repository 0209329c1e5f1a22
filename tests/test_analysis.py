"""Tests for the experiment harness (runners, ablations, comparisons)."""

from __future__ import annotations

import pytest

from repro.analysis.ablations import (
    run_flag_ablation,
    run_modulus_ablation,
    run_naive_ablation,
)
from repro.analysis.compare import aggregate_comparison, compare_mutex_protocols
from repro.analysis.experiments import (
    run_capacity_sweep,
    run_figure1,
    run_impossibility_experiment,
    run_property1_check,
)
from repro.analysis.metrics import summarize
from repro.analysis.runner import (
    pif_scaling_row,
    run_idl_trial,
    run_mutex_trial,
    run_pif_trial,
)
from repro.analysis.tables import format_value, render_table
from repro.engine import TrialSpec


class TestTables:
    def test_render_alignment(self):
        table = render_table(["a", "long-header"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_with_title(self):
        assert render_table(["x"], [[1]], title="T").startswith("T\n")

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(2.0) == "2"
        assert format_value(2.345) == "2.35"
        assert format_value("s") == "s"


class TestMetrics:
    def test_summarize_simple(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.p50 == 3
        assert s.mean == 3
        assert s.minimum == 1 and s.maximum == 5

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_dict(self):
        d = summarize([1]).as_dict()
        assert d["count"] == 1


class TestTrials:
    def test_pif_trial_ok(self):
        trial = run_pif_trial(TrialSpec(n=3), requests_per_process=1)
        assert trial.ok
        assert trial.measurements["waves"] >= 3

    def test_pif_trial_row(self):
        trial = run_pif_trial(TrialSpec(n=2, seed=1), requests_per_process=1)
        row = trial.row("n", "ok", "messages")
        assert row[0] == 2 and row[1] is True and row[2] > 0

    def test_idl_trial_ok(self):
        assert run_idl_trial(TrialSpec(n=3), requests_per_process=1).ok

    def test_mutex_trial_ok(self):
        trial = run_mutex_trial(TrialSpec(n=3), requests_per_process=1)
        assert trial.ok
        assert trial.measurements["served"] == 3

    def test_scaling_row_shape(self):
        row = pif_scaling_row(3, seeds=[0])
        assert set(row) >= {"n", "messages_mean", "duration_mean"}


class TestFigure1:
    def test_worst_case_spurious_level_is_three(self):
        result = run_figure1(seed=0)
        assert result.spurious_level == 3  # the paper's Figure 1 claim
        assert result.brd_time <= result.fck_time <= result.decide_time
        assert result.spec_ok

    def test_increments_reach_four(self):
        result = run_figure1(seed=0)
        assert [value for _, value in result.increments] == [1, 2, 3, 4]


class TestFlagAblation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_domains_break_safety(self, k):
        result = run_flag_ablation(k)
        assert result.decided
        assert not result.spec_ok

    @pytest.mark.parametrize("k", [4, 5])
    def test_paper_domain_and_larger_safe(self, k):
        result = run_flag_ablation(k)
        assert result.decided
        assert result.spec_ok


class TestModulusAblation:
    def test_paper_modulus_starves_fixed_serves(self):
        row = run_modulus_ablation(n=3, requests_per_process=3, horizon=120_000)
        assert not row["paper_mod_completed"]
        assert row["fixed_mod_completed"]
        assert row["paper_mod_served"] < row["fixed_mod_served"] == 9


class TestNaiveAblation:
    def test_naive_fails_where_pif_does_not(self):
        row = run_naive_ablation(seeds=list(range(6)), loss=0.3, horizon=20_000)
        assert row["pif_deadlocks"] == 0
        assert row["pif_safety_violations"] == 0
        assert row["naive_deadlocks"] + row["naive_safety_violations"] > 0


class TestPropertyOne:
    def test_channels_flushed(self):
        row = run_property1_check(n=3, seed=0)
        assert row["property1_holds"]
        assert row["injected"] > 0

    def test_capacity_sweep_all_ok(self):
        rows = run_capacity_sweep([1, 2], n=3, seeds=[0])
        assert all(r["ok"] == r["trials"] for r in rows)
        assert all(r["violations"] == 0 for r in rows)


class TestComparison:
    def test_snap_never_violates_self_sometimes_does(self):
        results = compare_mutex_protocols(
            n=3, seeds=list(range(4)), horizon=500_000
        )
        agg = aggregate_comparison(results)
        assert agg["snap_total_violations"] == 0
        assert agg["configs"] == 4
        # The self-stabilizing baseline serves requests too; whether it
        # violates depends on the scramble, so no hard assertion here —
        # the E6 bench aggregates over more seeds.


class TestImpossibilityExperiment:
    def test_end_to_end_row(self):
        row = run_impossibility_experiment(n=2, seed=0)
        assert row["unbounded_violated"]
        assert row["bounded_construction_fails"]
        assert row["max_concurrency"] == 2
