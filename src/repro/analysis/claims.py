"""The reproduction's claims, each stated and checked once.

One :class:`Claim` per row of :data:`CLAIMS`: what the paper says (or
what it predicts fails — a baseline or a fault beyond the model), the
evidence kind behind the check, the verdict the paper predicts for the
stated property, and the ``repro`` subcommand that prints the
experiment's full table.  ``repro claims`` runs every check, prints the
table with the observed verdict beside the expected one, and exits 1
naming each row where the two differ.

Evidence is ``construction`` — a crafted configuration or a scripted
schedule, deterministic — or ``sampled(sizes × seeds × topologies)`` —
scrambled initial configurations, so a sample, never a proof.  The
README's reproduction table is :func:`render` without observations
(``tests/test_claims.py`` holds the two equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Mapping

from repro.analysis.ablations import (
    run_flag_ablation,
    run_modulus_ablation,
    run_naive_ablation,
)
from repro.analysis.compare import aggregate_comparison, compare_mutex_protocols
from repro.analysis.experiments import (
    run_capacity_sweep,
    run_fault_model_sweep,
    run_figure1,
    run_impossibility_experiment,
    run_property1_check,
    run_topology_matrix,
)
from repro.analysis.runner import pif_scaling_row, run_idl_trial, sweep
from repro.engine.spec import TrialSpec
from repro.errors import ReproError

__all__ = ["CLAIMS", "Claim", "HOLDS", "VIOLATED", "observe", "render"]

HOLDS = "holds"
VIOLATED = "violated"
CONSTRUCTION = "construction"


@dataclass(frozen=True)
class Claim:
    """One row: ``check()`` is True when the stated property held on
    every piece of the row's evidence."""

    id: str
    statement: str
    evidence: str
    expected: str
    #: The subcommand printing the full table ("" when none does).
    command: str
    check: Callable[[], bool]


def _sampled(sizes: str, seeds: int, topologies: str = "complete") -> str:
    return f"sampled(n={sizes} × {seeds} seed{'s' * (seeds != 1)} × {topologies})"


def _figure1() -> bool:
    results = [run_figure1(seed=seed) for seed in range(5)]
    return all(
        r.spurious_level <= 3 and r.brd_time <= r.fck_time <= r.decide_time
        and r.spec_ok for r in results
    ) and max(r.spurious_level for r in results) == 3


@cache
def _theorem1() -> list[dict]:
    return [run_impossibility_experiment(n=n, seed=0) for n in (2, 3)]


def _unbounded_keeps_exclusion() -> bool:
    return not all(
        r["unbounded_violated"] and r["max_concurrency"] == r["n"]
        and r["max_channel_depth"] > 1 for r in _theorem1())


def _pif() -> bool:
    return all(t.ok for t in sweep(
        "pif", ns=[2, 3, 5], losses=[0.0, 0.1, 0.3], seeds=[0, 1, 2],
        requests_per_process=2))


def _idl() -> bool:
    trials = [run_idl_trial(TrialSpec(n=n, seed=seed, loss=loss))
              for n in (2, 4, 6) for loss in (0.0, 0.2) for seed in (0, 1, 2)]
    trials.append(run_idl_trial(
        TrialSpec(n=3, seed=7), idents={1: 300, 2: 10, 3: 200},
        requests_per_process=1))
    trials.extend(run_idl_trial(
        TrialSpec(n=5, loss=0.1, seed=seed), requests_per_process=1,
        idents={1: 50, 2: 7, 3: 31, 4: 12, 5: 90}) for seed in range(8))
    return all(t.ok for t in trials)


def _mutex() -> bool:
    return all(
        t.ok and t.measurements["served"] == t.measurements["requested"]
        for t in sweep("me", ns=[2, 3, 4], losses=[0.0, 0.1], seeds=[0, 1],
                       requests_per_process=2))


@cache
def _snap_vs_self() -> dict:
    return aggregate_comparison(compare_mutex_protocols(
        n=4, seeds=list(range(8)), requests_per_process=2, horizon=600_000))


def _scaling() -> bool:
    rows = [pif_scaling_row(n, seeds=[0, 1, 2]) for n in (2, 3, 5, 8, 12, 24, 64)]
    per_peer = [r["messages_per_peer"] for r in rows]
    durations = [r["duration_mean"] for r in rows]
    return (max(per_peer) <= 3 * min(per_peer)
            and max(durations) <= 3 * max(durations[0], 1))


@cache
def _flag_domain() -> dict[int, bool]:
    return {k: run_flag_ablation(k).spec_ok for k in (1, 2, 3, 4, 5)}


def _modulus() -> bool:
    row = run_modulus_ablation(n=3, requests_per_process=3, horizon=120_000)
    return row["fixed_mod_completed"] and not row["paper_mod_completed"]


@cache
def _naive() -> dict:
    return run_naive_ablation(seeds=list(range(8)), loss=0.3, horizon=25_000)


def _property1() -> bool:
    return all(run_property1_check(n=n, seed=s)["property1_holds"]
               for n in (2, 4) for s in (0, 1))


def _capacity() -> bool:
    return all(r["ok"] == r["trials"]
               for r in run_capacity_sweep([1, 2, 4], n=3, seeds=[0, 1, 2]))


@cache
def _fault_models() -> list[dict]:
    return run_fault_model_sweep(n=3, seeds=[0, 1, 2])


def _fault_free(within_model: bool) -> bool:
    return all(r["ok"] == r["trials"] for r in _fault_models()
               if r["within_model"] is within_model)


def _matrix(n: int, protocol: str, topologies: list[str],
            losses: list[float], seeds: list[int]) -> bool:
    return all(r["ok"] == r["trials"] for r in run_topology_matrix(
        TrialSpec(n=n), topologies=topologies, losses=losses, seeds=seeds,
        protocol=protocol))


CLAIMS: tuple[Claim, ...] = (
    Claim("E1", "Figure 1: from the worst-case two-process configuration, "
          "garbage lifts State_p[q] to at most 3, the 3→4 switch waits for a "
          "causal round trip, and Specification 1 holds.",
          _sampled("2", 5), HOLDS, "figure1", _figure1),
    Claim("E2-", "Theorem 1, unbounded capacity: mutual exclusion survives "
          "the γ₀ folded from every process's solo witness execution.",
          CONSTRUCTION, VIOLATED, "impossibility", _unbounded_keeps_exclusion),
    Claim("E2+", "Theorem 1, bounded capacity: the γ₀ of E2- cannot be "
          "built on capacity-1 channels.",
          CONSTRUCTION, HOLDS, "impossibility",
          lambda: all(r["bounded_construction_fails"] for r in _theorem1())),
    Claim("E3", "Theorem 2: Protocol PIF meets Specification 1 from arbitrary "
          "initial configurations at loss 0, 0.1 and 0.3.",
          _sampled("2,3,5", 3), HOLDS, "pif", _pif),
    Claim("E4", "Theorem 3: Protocol IDL meets Specification 2 from arbitrary "
          "initial configurations, with pid identities at loss 0 and 0.2 and "
          "with non-pid identity maps: {1: 300, 2: 10, 3: 200}, and "
          "{1: 50, 2: 7, 3: 31, 4: 12, 5: 90} at loss 0.1 over seeds 0–7.",
          _sampled("2,3,4,5,6", 8), HOLDS, "idl", _idl),
    Claim("E5", "Theorem 4: Protocol ME meets Specification 3 and serves every "
          "request from arbitrary initial configurations at loss 0 and 0.1.",
          _sampled("2,3,4", 2), HOLDS, "mutex", _mutex),
    Claim("E6+", "Snap-stabilization: Protocol ME lets no two requesting "
          "processes collide and serves all 64 requests.",
          _sampled("4", 8), HOLDS, "compare",
          lambda: _snap_vs_self()["snap_total_violations"] == 0
          and _snap_vs_self()["snap_total_served"] == 64),
    Claim("E6-", "Self-stabilization: the token-ring mutex, from the same "
          "configurations, lets no two requesting processes collide.",
          _sampled("4", 8), VIOLATED, "compare",
          lambda: _snap_vs_self()["self_configs_with_violation"] == 0),
    Claim("E7", "A PIF wave costs messages linear in n (per-peer cost within "
          "a 3× band) and a duration within 3× of the n=2 wave.",
          _sampled("2,3,5,8,12,24,64", 3), HOLDS, "scaling", _scaling),
    Claim("E8a-", "Lemma 4, necessity: a flag domain {0..k} with k < 4 keeps "
          "Specification 1 against a crafted capacity-legal adversary.",
          CONSTRUCTION, VIOLATED, "ablations",
          lambda: all(_flag_domain()[k] for k in (1, 2, 3))),
    Claim("E8a+", "Lemma 4, sufficiency: with k = 4 (the paper's domain) or "
          "5 the same adversary cannot break Specification 1.",
          CONSTRUCTION, HOLDS, "ablations",
          lambda: _flag_domain()[4] and _flag_domain()[5]),
    Claim("E8b", "Action A7 with the corrected mod n serves every request, "
          "where the paper's literal mod (n+1) starves (a typo: it "
          "contradicts Lemma 11).",
          _sampled("3", 1), HOLDS, "ablations", _modulus),
    Claim("E8c-", "The naive PIF sketch of Section 4.1 neither deadlocks under "
          "30% loss nor decides on stale feedback.",
          _sampled("3", 8), VIOLATED, "ablations",
          lambda: _naive()["naive_deadlocks"]
          + _naive()["naive_safety_violations"] == 0),
    Claim("E8c+", "Protocol PIF, against the same adversary, neither "
          "deadlocks nor decides on stale feedback.",
          _sampled("3", 8), HOLDS, "ablations",
          lambda: _naive()["pif_deadlocks"]
          + _naive()["pif_safety_violations"] == 0),
    Claim("E9a", "Property 1: one complete PIF wave flushes every initial "
          "message from the initiator's channels.",
          _sampled("2,4", 2), HOLDS, "property1", _property1),
    Claim("E9b", "Capacity-c channels with flag domain {0..c+3} keep "
          "Specification 1 for c = 1, 2 and 4.",
          _sampled("3", 3), HOLDS, "capacity", _capacity),
    Claim("E10+", "Every fairness-respecting loss model (Bernoulli, "
          "Gilbert–Elliott, periodic, targeted) keeps Specification 1.",
          _sampled("3", 3), HOLDS, "", lambda: _fault_free(True)),
    Claim("E10-", "Ongoing header corruption, a fault that never ceases and so "
          "lies beyond the model, keeps Specification 1.",
          _sampled("3", 3), VIOLATED, "", lambda: _fault_free(False)),
    Claim("E11a", "PIF meets the topology-generalized Specification 1 at loss "
          "0 and 0.25.",
          _sampled("8", 3, "7 topologies"), HOLDS, "matrix",
          lambda: _matrix(8, "pif", ["complete", "ring", "star", "grid",
                                     "gnp:0.35", "clustered:2", "wan:2"],
                          [0.0, 0.25], [0, 1, 2])),
    Claim("E11b", "ME meets Specification 3 per leader cluster at loss 0 and "
          "0.1.",
          _sampled("6", 2, "5 topologies"), HOLDS, "matrix",
          lambda: _matrix(6, "mutex", ["complete", "ring", "star",
                                       "clustered:2", "wan:2"],
                          [0.0, 0.1], [0, 1])),
)


def observe(claim: Claim) -> str:
    """The row's observed verdict; a check that raises is named by its
    error, which no expectation matches."""
    try:
        return HOLDS if claim.check() else VIOLATED
    except ReproError as exc:
        return f"error: {exc}"


def render(observed: Mapping[str, str] | None = None) -> str:
    """The claims as a Markdown table; ``observed`` (id → verdict) adds
    the observed column."""
    head = ["id", "claim", "evidence", "expected", "command"]
    if observed is not None:
        head.append("observed")
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for claim in CLAIMS:
        cells = [claim.id, claim.statement, claim.evidence, claim.expected,
                 f"`repro {claim.command}`" if claim.command else "—"]
        if observed is not None:
            cells.append(observed[claim.id])
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
