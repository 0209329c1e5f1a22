"""E8 — ablations: why the paper's design choices are load-bearing.

* **E8a** (:func:`run_flag_ablation`): shrink the handshake flag domain below
  {0..4}.  A crafted adversarial initial configuration (one garbage message
  per direction plus one stale ``NeigState``) makes the initiator decide
  without the peer ever receiving its broadcast — for any ``max_state < 4``.
  With the paper's 5-valued domain the same adversary is harmless (Lemma 4).
* **E8b** (:func:`run_modulus_ablation`): keep the paper's literal
  ``Value ← (Value+1) mod (n+1)`` in action A7.  ``Value = n`` favours
  nobody, so the leader stalls and requests starve — evidence the
  ``mod (n+1)`` is a typo (it contradicts the paper's own Lemma 11); the
  corrected ``mod n`` serves every request.
* **E8c** (:func:`run_naive_ablation`): the paper's "naive attempt"
  (Section 4.1) deadlocks under loss and believes stale feedback from the
  initial configuration; Protocol PIF suffers neither under identical
  adversaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.naive_pif import NaivePifLayer
from repro.core.messages import PifMessage
from repro.core.pif import PifLayer
from repro.sim.channel import BernoulliLoss
from repro.sim.runtime import Simulator
from repro.spec.pif_spec import check_pif
from repro.types import RequestState

__all__ = [
    "FlagAblationResult",
    "run_flag_ablation",
    "run_modulus_ablation",
    "run_naive_ablation",
]


@dataclass
class FlagAblationResult:
    """Outcome of the crafted attack against one flag-domain size."""

    max_state: int
    decided: bool
    spec_ok: bool
    violations: list[str]


def run_flag_ablation(max_state: int) -> FlagAblationResult:
    """Run the crafted adversarial handshake against flag domain {0..max_state}.

    The adversary (legal in the bounded-capacity model!) uses exactly:
    one stale message per channel direction and one stale ``NeigState`` at
    the peer.  The interleaving is scripted in manual mode, so the outcome
    is deterministic.
    """
    sim = Simulator(
        2,
        lambda h: h.register(PifLayer("pif", max_state=max_state)),
        auto=False,
    )
    p, q = sim.pids
    lp: PifLayer = sim.layer(p, "pif")  # type: ignore[assignment]
    lq: PifLayer = sim.layer(q, "pif")  # type: ignore[assignment]

    # Adversarial initial configuration.
    lq.request = RequestState.IN  # a never-started computation at q
    lq.state[p] = 0
    lq.neig_state[p] = 1          # stale: q believes p is at 1
    lq.b_mes = "b-garbage"
    lq.f_mes[p] = "f-garbage"
    # One garbage message per direction (the capacity bound allows exactly that).
    sim.inject(q, p, PifMessage("pif", "b-garbage", "f-garbage", state=0, echo=0),
               schedule=False)
    if max_state >= 3:
        # A stale broadcast-flag message: triggers a spurious receive-brd.
        garbage_pq = PifMessage(
            "pif", "GARBAGE", "f?", state=max_state - 1, echo=max_state
        )
    else:
        # An inert stale message: just occupies the p->q slot so p's own
        # broadcast is lost to the full channel.
        garbage_pq = PifMessage(
            "pif", "GARBAGE", "f?", state=max_state, echo=max_state
        )
    sim.inject(p, q, garbage_pq, schedule=False)

    lp.request_broadcast("m")

    # Scripted worst-case interleaving.
    sim.activate(p)            # A1+A2: State_p[q] = 0 (send blocked by garbage)
    sim.step_deliver(q, p)     # garbage echo=0: 0 -> 1
    if max_state >= 2:
        sim.activate(q)        # q's A2 resend with stale echo=1
        sim.step_deliver(q, p) # 1 -> 2
    if max_state >= 3:
        sim.step_deliver(p, q) # garbage brd flag: spurious receive-brd at q,
        sim.step_deliver(q, p) # whose reply echoes max_state-1: 2 -> 3 iff max_state == 3
    # Generic completion: run both processes until p decides (or give up).
    for _ in range(500):
        if lp.request is RequestState.DONE:
            break
        sim.activate(p)
        sim.activate(q)
        sim.step_deliver(p, q)
        sim.step_deliver(q, p)

    verdict = check_pif(sim.trace, "pif", sim.pids, require_all_decided=True)
    return FlagAblationResult(
        max_state=max_state,
        decided=lp.request is RequestState.DONE,
        spec_ok=verdict.ok,
        violations=[str(v) for v in verdict.violations],
    )


def run_modulus_ablation(
    n: int = 3,
    *,
    requests_per_process: int = 3,
    seed: int = 0,
    horizon: int = 400_000,
) -> list[dict[str, Any]]:
    """Paper's literal ``mod (n+1)`` vs the corrected ``mod n`` (E8b): one
    row per trial, the paper's first."""
    from repro.analysis.runner import run_mutex_trial
    from repro.engine.spec import TrialSpec

    spec = TrialSpec(n=n, seed=seed, scramble=False, horizon=horizon)
    rows = []
    for modulus, paper in (("n+1", True), ("n", False)):
        trial = run_mutex_trial(
            spec, requests_per_process=requests_per_process,
            use_paper_modulus=paper, require_completion=False,
        )
        rows.append({
            "modulus": modulus,
            "requested": requests_per_process * n,
            "served": trial.measurements["served"],
            "completed": trial.measurements["completed"],
        })
    return rows


def run_naive_ablation(
    *,
    n: int = 3,
    seeds: list[int] | None = None,
    loss: float = 0.3,
    horizon: int = 30_000,
) -> list[dict[str, Any]]:
    """Naive PIF vs Protocol PIF under loss and arbitrary initial configs:
    one row per seed, whether each decided and its safety violations."""
    if seeds is None:
        seeds = list(range(10))
    rows: list[dict[str, Any]] = []
    for seed in seeds:
        row: dict[str, Any] = {"seed": seed}
        for proto, build in (
            ("naive", lambda h: h.register(NaivePifLayer("w"))),
            ("pif", lambda h: h.register(PifLayer("w"))),
        ):
            sim = Simulator(n, build, seed=seed, loss=BernoulliLoss(loss))
            sim.scramble(seed=seed ^ 0xFADE)
            initiator = sim.pids[0]
            sim.layer(initiator, "w").request_broadcast("payload")
            layer = sim.layer(initiator, "w")
            row[f"{proto}_decided"] = sim.run(
                horizon, until=lambda s: layer.request is RequestState.DONE
            )
            verdict = check_pif(
                sim.trace, "w", sim.pids, require_all_decided=False
            )
            row[f"{proto}_safety_violations"] = sum(
                1 for v in verdict.violations if v.prop in ("Correctness", "Decision")
            )
        rows.append(row)
    return rows
