"""E5 — Theorem 4: Protocol ME is snap-stabilizing (Specification 3).

Every requesting process enters the critical section in finite time
(Start) and requested critical sections never overlap anything
(Correctness), from any initial configuration, under loss.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.runner import sweep
from repro.analysis.tables import render_table


def run_experiment():
    return sweep(
        "me",
        ns=[2, 3, 4],
        losses=[0.0, 0.1],
        seeds=[0, 1],
        requests_per_process=2,
    )


def test_e5_mutex_snap_stabilization(benchmark):
    trials = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Full per-trial records (measurements + engine/transport/wall-clock
    # provenance) land in the bench JSON artifact, so runs of different
    # engines stay comparable row for row.
    benchmark.extra_info["trials"] = [t.as_dict() for t in trials]
    rows = [
        t.row("n", "loss", "ok", "violations", "served", "requested",
              "latency_p50", "latency_p95")
        for t in trials
    ]
    report(
        "E5 / Theorem 4 — mutual exclusion from arbitrary initial configurations",
        render_table(
            ["n", "loss", "ok", "violations", "served", "requested",
             "latency_p50", "latency_p95"],
            rows,
        )
        + "\npaper: all requests served, zero exclusion violations",
    )
    assert all(t.ok for t in trials)
    assert all(
        t.measurements["served"] == t.measurements["requested"] for t in trials
    )
