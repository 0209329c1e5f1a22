"""E11 — the topology × fault scenario matrix.

One row per (topology, loss model) scenario: scrambled PIF trials checked
against the topology-generalized Specification 1, plus a mutual-exclusion
sweep on the sparse topologies (per-leader-cluster Correctness).  Every cell
must report zero violations — the snap-stabilization guarantee is claimed
for the wave's reach on *any* connected topology, not just the paper's
complete graph.

The matrix carries a weighted axis: ``wan:2`` is the same graph as
``clustered:2`` with per-edge latency maps (fast intra-cluster, slow
cross-cluster), so the uniform-vs-WAN row pair shows how heterogeneous
latency stretches waves without touching correctness (the ``weighted``
column marks which rows drew per-edge bounds).
"""

from __future__ import annotations

from conftest import report

from repro.analysis.experiments import run_topology_matrix
from repro.analysis.tables import render_table
from repro.engine import TrialSpec

TOPOLOGIES = ["complete", "ring", "star", "grid", "gnp:0.35", "clustered:2",
              "wan:2"]
LOSSES = [0.0, 0.25]
SEEDS = [0, 1, 2]


def run_pif_matrix():
    return run_topology_matrix(
        TrialSpec(n=8), topologies=TOPOLOGIES, losses=LOSSES, seeds=SEEDS,
        protocol="pif",
    )


def run_mutex_matrix():
    return run_topology_matrix(
        TrialSpec(n=6), topologies=["complete", "ring", "star", "clustered:2", "wan:2"],
        losses=[0.0, 0.1], seeds=[0, 1], protocol="mutex",
    )


def _render(rows):
    return render_table(list(rows[0].keys()), [list(r.values()) for r in rows])


def test_topology_matrix_pif(benchmark):
    rows = benchmark.pedantic(run_pif_matrix, rounds=1, iterations=1)
    report("E11 — topology x fault matrix (PIF)", _render(rows))
    for row in rows:
        assert row["ok"] == row["trials"], row
        assert row["violations"] == 0, row


def test_topology_matrix_mutex(benchmark):
    rows = benchmark.pedantic(run_mutex_matrix, rounds=1, iterations=1)
    report("E11 — topology x fault matrix (ME)", _render(rows))
    for row in rows:
        assert row["ok"] == row["trials"], row
        assert row["violations"] == 0, row
