"""E6 — snap- vs self-stabilization, measured.

From the same arbitrary initial configurations, run (a) the paper's
snap-stabilizing Protocol ME and (b) the self-stabilizing token-ring mutex
baseline, and count safety violations among *requesting* processes and
requests served.  The paper's Section 2 comparison predicts: the
self-stabilizing protocol may violate safety while it converges (and does,
whenever the scramble forges extra tokens); the snap-stabilizing protocol
never does.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.self_stab_mutex import TokenMutexLayer
from repro.core.mutex import MutexLayer
from repro.core.requests import RequestDriver
from repro.sim.channel import BernoulliLoss, NoLoss
from repro.sim.runtime import Simulator
from repro.spec.mutex_spec import check_mutex

__all__ = ["compare_mutex_protocols"]


def _run_one(
    layer: type,
    n: int,
    seed: int,
    loss: float,
    requests_per_process: int,
    horizon: int,
) -> tuple[int, int, int | None]:
    """Returns (safety violations, requests served, last violation time)."""
    sim = Simulator(
        n, lambda h: h.register(layer("mx")), seed=seed,
        loss=BernoulliLoss(loss) if loss > 0 else NoLoss(),
    )
    sim.scramble(seed=seed ^ 0xBAD)
    driver = RequestDriver(sim, "mx", requests_per_process=requests_per_process)
    sim.run(horizon, until=lambda s: driver.done)
    verdict = check_mutex(
        sim.trace, "mx", horizon=sim.now, require_all_served=False)
    correctness = verdict.by_property("Correctness")
    last_violation = max(
        (v.time for v in correctness if v.time is not None), default=None
    )
    return len(correctness), driver.total_completed(), last_violation


def compare_mutex_protocols(
    n: int = 4,
    seeds: list[int] | None = None,
    *,
    loss: float = 0.0,
    requests_per_process: int = 2,
    horizon: int = 3_000_000,
) -> list[dict[str, Any]]:
    """Head-to-head over a batch of arbitrary initial configurations, one
    row per seed.

    ``self_last_violation`` is the time of the self-stabilizing
    baseline's last safety violation — its *convergence point*:
    everything before it is the unsafe window a snap-stabilizing protocol
    never has ("-" when the run happened to be violation-free).
    """
    if seeds is None:
        seeds = list(range(10))
    rows: list[dict[str, Any]] = []
    for seed in seeds:
        snap_violations, snap_served, _ = _run_one(
            MutexLayer, n, seed, loss, requests_per_process, horizon
        )
        self_violations, self_served, self_last = _run_one(
            TokenMutexLayer, n, seed, loss, requests_per_process, horizon
        )
        rows.append({
            "seed": seed,
            "snap_violations": snap_violations,
            "snap_served": snap_served,
            "self_violations": self_violations,
            "self_served": self_served,
            "self_last_violation": "-" if self_last is None else self_last,
        })
    return rows
