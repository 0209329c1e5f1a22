"""E3 — Theorem 2: Protocol PIF is snap-stabilizing (Specification 1).

Sweep system size × loss rate × arbitrary initial configurations; every
trial must satisfy all four properties of Specification 1 (Start,
Correctness, Termination, Decision) with zero violations.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.runner import sweep
from repro.analysis.tables import render_table


def run_experiment():
    return sweep(
        "pif",
        ns=[2, 3, 5],
        losses=[0.0, 0.1, 0.3],
        seeds=[0, 1, 2],
        requests_per_process=2,
    )


def test_e3_pif_snap_stabilization(benchmark):
    trials = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Full per-trial records (measurements + engine/transport/wall-clock
    # provenance) land in the bench JSON artifact, so runs of different
    # engines stay comparable row for row.
    benchmark.extra_info["trials"] = [t.as_dict() for t in trials]
    rows = [
        t.row("n", "loss", "ok", "violations", "waves", "msg_per_wave",
              "wave_p50", "wave_p95")
        for t in trials
    ]
    report(
        "E3 / Theorem 2 — PIF from arbitrary initial configurations",
        render_table(
            ["n", "loss", "ok", "violations", "waves", "msg/wave",
             "wave_p50", "wave_p95"],
            rows,
        )
        + f"\npaper: 0 violations expected; got "
        f"{sum(t.violations for t in trials)} across {len(trials)} trials",
    )
    assert all(t.ok for t in trials)
    assert sum(t.violations for t in trials) == 0
