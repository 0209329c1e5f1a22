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

from dataclasses import dataclass
from typing import Any

from repro.baselines.self_stab_mutex import TokenMutexLayer
from repro.core.mutex import MutexLayer
from repro.core.protocols import PROTOCOLS
from repro.core.requests import RequestDriver
from repro.sim.channel import BernoulliLoss, NoLoss
from repro.sim.runtime import Simulator
from repro.sim.topology import Topology, topology_from_spec
from repro.spec.mutex_spec import check_mutex

__all__ = ["MutexComparison", "compare_mutex_protocols", "aggregate_comparison"]


@dataclass
class MutexComparison:
    """One seed's head-to-head outcome.

    ``self_last_violation`` is the time of the self-stabilizing baseline's
    last safety violation — its *convergence point*: everything before it is
    the unsafe window a snap-stabilizing protocol never has (None when the
    run happened to be violation-free).
    """

    seed: int
    n: int
    snap_violations: int
    snap_served: int
    self_violations: int
    self_served: int
    self_last_violation: int | None = None

    def row(self) -> list[Any]:
        return [
            self.seed,
            self.snap_violations,
            self.snap_served,
            self.self_violations,
            self.self_served,
            self.self_last_violation if self.self_last_violation is not None else "-",
        ]


def _run_one(
    protocol: str,
    n: int,
    seed: int,
    loss: float,
    requests_per_process: int,
    horizon: int,
    topology: Topology | str | None = None,
) -> tuple[int, int, int | None]:
    """Returns (safety violations, requests served, last violation time)."""
    if protocol == "snap":
        build = lambda h: h.register(MutexLayer("mx"))
    elif protocol == "self":
        build = lambda h: h.register(TokenMutexLayer("mx"))
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if isinstance(topology, str):
        topology = topology_from_spec(topology, n, seed=seed)
    sim = Simulator(
        n if topology is None else None, build, topology=topology, seed=seed,
        loss=BernoulliLoss(loss) if loss > 0 else NoLoss(),
    )
    sim.scramble(seed=seed ^ 0xBAD)
    driver = RequestDriver(sim, "mx", requests_per_process=requests_per_process)
    sim.run(horizon, until=lambda s: driver.done)
    # On a non-complete topology the snap protocol guarantees exclusion per
    # leader cluster (the generalized reading); the token baseline still
    # claims — and, while converging, violates — global exclusion, so it is
    # judged against the stricter global clusters=None reading it targets.
    scoped = PROTOCOLS["me"].scope(sim.topology) if protocol == "snap" else {}
    verdict = check_mutex(
        sim.trace, "mx", horizon=sim.now, require_all_served=False, **scoped
    )
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
    topology: Topology | str | None = None,
) -> list[MutexComparison]:
    """Head-to-head over a batch of arbitrary initial configurations.

    ``topology`` accepts ``complete`` (the paper's setting, default) or
    ``ring`` — the token baseline circulates on the pid-order ring, which
    both embed.
    """
    if seeds is None:
        seeds = list(range(10))
    results: list[MutexComparison] = []
    for seed in seeds:
        snap_violations, snap_served, _ = _run_one(
            "snap", n, seed, loss, requests_per_process, horizon, topology
        )
        self_violations, self_served, self_last = _run_one(
            "self", n, seed, loss, requests_per_process, horizon, topology
        )
        results.append(
            MutexComparison(
                seed=seed,
                n=n,
                snap_violations=snap_violations,
                snap_served=snap_served,
                self_violations=self_violations,
                self_served=self_served,
                self_last_violation=self_last,
            )
        )
    return results


def aggregate_comparison(results: list[MutexComparison]) -> dict[str, Any]:
    """Totals across seeds — the E6 headline numbers."""
    return {
        "configs": len(results),
        "snap_total_violations": sum(r.snap_violations for r in results),
        "snap_total_served": sum(r.snap_served for r in results),
        "self_total_violations": sum(r.self_violations for r in results),
        "self_total_served": sum(r.self_served for r in results),
        "self_configs_with_violation": sum(
            1 for r in results if r.self_violations > 0
        ),
    }
