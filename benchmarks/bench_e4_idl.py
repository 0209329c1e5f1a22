"""E4 — Theorem 3: Protocol IDL is snap-stabilizing (Specification 2).

Every started IDs-Learning computation must deliver the exact identity
table and the exact minimum identity, from any initial configuration.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.runner import run_idl_trial
from repro.analysis.tables import render_table
from repro.engine import TrialSpec


def run_experiment():
    trials = []
    for n in (2, 4, 6):
        for loss in (0.0, 0.2):
            for seed in (0, 1, 2):
                trials.append(
                    run_idl_trial(TrialSpec(n=n, seed=seed, loss=loss))
                )
    # Non-pid identities: leadership must follow identities.
    trials.append(
        run_idl_trial(
            TrialSpec(n=3, seed=7), idents={1: 300, 2: 10, 3: 200},
            requests_per_process=1,
        )
    )
    return trials


def test_e4_idl_snap_stabilization(benchmark):
    trials = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        t.row("n", "loss", "ok", "violations", "computations", "latency_p50")
        for t in trials
    ]
    report(
        "E4 / Theorem 3 — IDs-Learning from arbitrary initial configurations",
        render_table(
            ["n", "loss", "ok", "violations", "computations", "latency_p50"],
            rows,
        )
        + "\npaper: every started computation yields exact ID-Tab and minID",
    )
    assert all(t.ok for t in trials)
