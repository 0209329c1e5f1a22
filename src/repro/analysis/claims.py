"""The reproduction's claims, each stated and checked once.

One :class:`Claim` per row of :data:`CLAIMS`: what the paper says (or
what it predicts fails — a baseline or a fault beyond the model), the
evidence kind behind the check, and the verdict the paper predicts for
the stated property.  A row's ``records`` run its experiment once, with
the row's parameters, and return what was measured: one record per
trial, per cell of trials (its ``trials`` column) or per crafted case.
Its ``holds`` judges those records and nothing else, so the table
:func:`table` prints of them is the evidence the verdict read.

``repro claims`` runs every row, prints the summary with the observed
verdict beside the expected one, and exits 1 naming each row where the
two differ; ``repro claims ID…`` prints those rows' tables.

Evidence is ``construction`` — a crafted configuration or a scripted
schedule, deterministic — or ``sampled(sizes × seeds × topologies)`` —
scrambled initial configurations, so a sample, never a proof.  The
README's reproduction table is :func:`render` without observations
(``tests/test_claims.py`` holds the two equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.ablations import (
    run_flag_ablation,
    run_modulus_ablation,
    run_naive_ablation,
)
from repro.analysis.compare import compare_mutex_protocols
from repro.analysis.experiments import (
    run_capacity_sweep,
    run_fault_model_sweep,
    run_figure1,
    run_impossibility_experiment,
    run_property1_check,
    run_topology_matrix,
)
from repro.analysis.runner import (
    TrialResult,
    pif_scaling_row,
    run_idl_trial,
    sweep,
)
from repro.analysis.tables import render_table
from repro.engine.spec import TrialSpec
from repro.errors import ReproError

__all__ = ["CLAIMS", "Claim", "HOLDS", "VIOLATED", "named", "observe",
           "render", "table"]

HOLDS = "holds"
VIOLATED = "violated"
CONSTRUCTION = "construction"

Records = list[dict[str, Any]]


@dataclass(frozen=True)
class Claim:
    """One row: ``holds(records())`` is True when the stated property
    held on every piece of the row's evidence."""

    id: str
    statement: str
    evidence: str
    expected: str
    #: Runs the row's experiment: one record per trial, per cell of
    #: trials (a ``trials`` column), or per crafted case.
    records: Callable[[], Records]
    holds: Callable[[Records], bool]


def _sampled(sizes: str, seeds: int, topologies: str = "complete") -> str:
    return f"sampled(n={sizes} × {seeds} seed{'s' * (seeds != 1)} × {topologies})"


def _trials(trials: list[TrialResult]) -> Records:
    """One record per trial: its axes, its verdict and what it measured."""
    return [{"n": t.params["n"], "loss": t.params["loss"],
             "seed": t.params["seed"], "ok": t.ok, "violations": t.violations,
             **t.measurements} for t in trials]


def _trials_ok(records: Records) -> bool:
    return all(r["ok"] for r in records)


def _cells_ok(records: Records) -> bool:
    return all(r["ok"] == r["trials"] for r in records)


def _figure1() -> Records:
    return [{"seed": seed, "spurious": r.spurious_level, "brd@q": r.brd_time,
             "fck@p": r.fck_time, "decide": r.decide_time, "spec_ok": r.spec_ok}
            for seed, r in ((seed, run_figure1(seed=seed)) for seed in range(5))]


def _figure1_holds(records: Records) -> bool:
    return all(
        r["spurious"] <= 3 and r["brd@q"] <= r["fck@p"] <= r["decide"]
        and r["spec_ok"] for r in records
    ) and max(r["spurious"] for r in records) == 3


@cache
def _theorem1() -> Records:
    return [run_impossibility_experiment(n=n, seed=0) for n in (2, 3)]


def _idl() -> Records:
    trials = [run_idl_trial(TrialSpec(n=n, seed=seed, loss=loss))
              for n in (2, 4, 6) for loss in (0.0, 0.2) for seed in (0, 1, 2)]
    trials.append(run_idl_trial(
        TrialSpec(n=3, seed=7), idents={1: 300, 2: 10, 3: 200},
        requests_per_process=1))
    trials.extend(run_idl_trial(
        TrialSpec(n=5, loss=0.1, seed=seed), requests_per_process=1,
        idents={1: 50, 2: 7, 3: 31, 4: 12, 5: 90}) for seed in range(8))
    return _trials(trials)


@cache
def _snap_vs_self() -> Records:
    return compare_mutex_protocols(
        n=4, seeds=list(range(8)), requests_per_process=2, horizon=600_000)


def _scaling_holds(records: Records) -> bool:
    per_peer = [r["messages_per_peer"] for r in records]
    durations = [r["duration_mean"] for r in records]
    return (max(per_peer) <= 3 * min(per_peer)
            and max(durations) <= 3 * max(durations[0], 1))


@cache
def _flag_domain() -> Records:
    return [{"max_state": k, "decided": r.decided, "spec_ok": r.spec_ok,
             "first violation": r.violations[0] if r.violations else ""}
            for k, r in ((k, run_flag_ablation(k)) for k in (1, 2, 3, 4, 5))]


@cache
def _naive() -> Records:
    return run_naive_ablation(seeds=list(range(8)), loss=0.3, horizon=25_000)


@cache
def _fault_models() -> Records:
    return run_fault_model_sweep(n=3, seeds=[0, 1, 2])


CLAIMS: tuple[Claim, ...] = (
    Claim("E1", "Figure 1: from the worst-case two-process configuration, "
          "garbage lifts State_p[q] to at most 3, the 3→4 switch waits for a "
          "causal round trip, and Specification 1 holds.",
          _sampled("2", 5), HOLDS, _figure1, _figure1_holds),
    Claim("E2-", "Theorem 1, unbounded capacity: mutual exclusion survives "
          "the γ₀ folded from every process's solo witness execution.",
          CONSTRUCTION, VIOLATED, _theorem1,
          lambda rs: not all(
              r["unbounded_violated"] and r["max_concurrency"] == r["n"]
              and r["max_channel_depth"] > 1 for r in rs)),
    Claim("E2+", "Theorem 1, bounded capacity: the γ₀ of E2- cannot be "
          "built on capacity-1 channels.",
          CONSTRUCTION, HOLDS, _theorem1,
          lambda rs: all(r["bounded_construction_fails"] for r in rs)),
    Claim("E3", "Theorem 2: Protocol PIF meets Specification 1 from arbitrary "
          "initial configurations at loss 0, 0.1 and 0.3.",
          _sampled("2,3,5", 3), HOLDS,
          lambda: _trials(sweep(
              "pif", ns=[2, 3, 5], losses=[0.0, 0.1, 0.3], seeds=[0, 1, 2],
              requests_per_process=2)),
          _trials_ok),
    Claim("E4", "Theorem 3: Protocol IDL meets Specification 2 from arbitrary "
          "initial configurations, with pid identities at loss 0 and 0.2 and "
          "with non-pid identity maps: {1: 300, 2: 10, 3: 200}, and "
          "{1: 50, 2: 7, 3: 31, 4: 12, 5: 90} at loss 0.1 over seeds 0–7.",
          _sampled("2,3,4,5,6", 8), HOLDS, _idl, _trials_ok),
    Claim("E5", "Theorem 4: Protocol ME meets Specification 3 and serves every "
          "request from arbitrary initial configurations at loss 0 and 0.1.",
          _sampled("2,3,4", 2), HOLDS,
          lambda: _trials(sweep(
              "me", ns=[2, 3, 4], losses=[0.0, 0.1], seeds=[0, 1],
              requests_per_process=2)),
          lambda rs: all(r["ok"] and r["served"] == r["requested"]
                         for r in rs)),
    Claim("E6+", "Snap-stabilization: Protocol ME lets no two requesting "
          "processes collide and serves all 64 requests.",
          _sampled("4", 8), HOLDS, _snap_vs_self,
          lambda rs: sum(r["snap_violations"] for r in rs) == 0
          and sum(r["snap_served"] for r in rs) == 64),
    Claim("E6-", "Self-stabilization: the token-ring mutex, from the same "
          "configurations, lets no two requesting processes collide.",
          _sampled("4", 8), VIOLATED, _snap_vs_self,
          lambda rs: all(r["self_violations"] == 0 for r in rs)),
    Claim("E7", "A PIF wave costs messages linear in n (per-peer cost within "
          "a 3× band) and a duration within 3× of the n=2 wave.",
          _sampled("2,3,5,8,12,24,64", 3), HOLDS,
          lambda: [pif_scaling_row(n, seeds=[0, 1, 2])
                   for n in (2, 3, 5, 8, 12, 24, 64)],
          _scaling_holds),
    Claim("E8a-", "Lemma 4, necessity: a flag domain {0..k} with k < 4 keeps "
          "Specification 1 against a crafted capacity-legal adversary.",
          CONSTRUCTION, VIOLATED, lambda: _flag_domain()[:3],
          lambda rs: all(r["spec_ok"] for r in rs)),
    Claim("E8a+", "Lemma 4, sufficiency: with k = 4 (the paper's domain) or "
          "5 the same adversary cannot break Specification 1.",
          CONSTRUCTION, HOLDS, lambda: _flag_domain()[3:],
          lambda rs: all(r["spec_ok"] for r in rs)),
    Claim("E8b", "Action A7 with the corrected mod n serves every request, "
          "where the paper's literal mod (n+1) starves (a typo: it "
          "contradicts Lemma 11).",
          _sampled("3", 1), HOLDS,
          lambda: run_modulus_ablation(
              n=3, requests_per_process=3, horizon=120_000),
          lambda rs: {r["modulus"]: r["completed"] for r in rs}
          == {"n+1": False, "n": True}),
    Claim("E8c-", "The naive PIF sketch of Section 4.1 neither deadlocks under "
          "30% loss nor decides on stale feedback.",
          _sampled("3", 8), VIOLATED, _naive,
          lambda rs: all(r["naive_decided"] and not r["naive_safety_violations"]
                         for r in rs)),
    Claim("E8c+", "Protocol PIF, against the same adversary, neither "
          "deadlocks nor decides on stale feedback.",
          _sampled("3", 8), HOLDS, _naive,
          lambda rs: all(r["pif_decided"] and not r["pif_safety_violations"]
                         for r in rs)),
    Claim("E9a", "Property 1: one complete PIF wave flushes every initial "
          "message from the initiator's channels.",
          _sampled("2,4", 2), HOLDS,
          lambda: [run_property1_check(n=n, seed=s)
                   for n in (2, 4) for s in (0, 1)],
          lambda rs: all(r["property1_holds"] for r in rs)),
    Claim("E9b", "Capacity-c channels with flag domain {0..c+3} keep "
          "Specification 1 for c = 1, 2 and 4.",
          _sampled("3", 3), HOLDS,
          lambda: run_capacity_sweep([1, 2, 4], n=3, seeds=[0, 1, 2]),
          _cells_ok),
    Claim("E10+", "Every fairness-respecting loss model (Bernoulli, "
          "Gilbert–Elliott, periodic, targeted) keeps Specification 1.",
          _sampled("3", 3), HOLDS,
          lambda: [r for r in _fault_models() if r["within_model"]],
          _cells_ok),
    Claim("E10-", "Ongoing header corruption, a fault that never ceases and so "
          "lies beyond the model, keeps Specification 1.",
          _sampled("3", 3), VIOLATED,
          lambda: [r for r in _fault_models() if not r["within_model"]],
          _cells_ok),
    Claim("E11a", "PIF meets the topology-generalized Specification 1 at loss "
          "0 and 0.25.",
          _sampled("8", 3, "7 topologies"), HOLDS,
          lambda: run_topology_matrix(
              TrialSpec(n=8), topologies=[
                  "complete", "ring", "star", "grid", "gnp:0.35",
                  "clustered:2", "wan:2"],
              losses=[0.0, 0.25], seeds=[0, 1, 2], protocol="pif"),
          _cells_ok),
    Claim("E11b", "ME meets Specification 3 per leader cluster at loss 0 and "
          "0.1.",
          _sampled("6", 2, "5 topologies"), HOLDS,
          lambda: run_topology_matrix(
              TrialSpec(n=6), topologies=[
                  "complete", "ring", "star", "clustered:2", "wan:2"],
              losses=[0.0, 0.1], seeds=[0, 1], protocol="mutex"),
          _cells_ok),
    Claim("E12", "Snapshot and reset as one PIF collect wave: from arbitrary "
          "initial configurations at loss 0 and 0.2, every started collect "
          "decides each process's true value over the initiator's closed "
          "neighbourhood.",
          _sampled("2,3,5", 3), HOLDS,
          lambda: _trials(sweep(
              "collect", ns=[2, 3, 5], losses=[0.0, 0.2], seeds=[0, 1, 2])),
          _trials_ok),
)


def named(ids: Sequence[str]) -> tuple[Claim, ...]:
    """The rows ``ids`` name, in that order (every row when there are
    none); an unknown id is an error that lists the known ones."""
    by_id = {claim.id: claim for claim in CLAIMS}
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise ReproError(f"unknown claim id {', '.join(unknown)}; the ids "
                         f"are {' '.join(by_id)}")
    return tuple(by_id[i] for i in dict.fromkeys(ids)) if ids else CLAIMS


def observe(claim: Claim) -> tuple[str, Records]:
    """The row's observed verdict and the records it judged; a check that
    raises is named by its error, which no expectation matches."""
    try:
        records = claim.records()
        return HOLDS if claim.holds(records) else VIOLATED, records
    except ReproError as exc:
        return f"error: {exc}", []


def table(claim: Claim, verdict: str, records: Records) -> str:
    """The records a row judged, one line each, under its verdicts."""
    title = (f"{claim.id}: {claim.evidence}; expected {claim.expected}, "
             f"observed {verdict}")
    if not records:
        return title
    heads = list(records[0])
    return render_table(heads, [[r[h] for h in heads] for r in records],
                        title=title)


def render(observed: Mapping[str, str] | None = None) -> str:
    """The claims as a Markdown table; ``observed`` (id → verdict) adds
    the observed column."""
    head = ["id", "claim", "evidence", "expected", "command"]
    if observed is not None:
        head.append("observed")
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for claim in CLAIMS:
        cells = [claim.id, claim.statement, claim.evidence, claim.expected,
                 f"`repro claims {claim.id}`"]
        if observed is not None:
            cells.append(observed[claim.id])
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
