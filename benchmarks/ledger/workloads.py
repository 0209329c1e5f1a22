"""The four ledger workloads: what is run, and why each one exists.

A workload is a fixed trial description plus a seed rule: trial ``i`` of
a run with ledger seed ``S`` gets ``TrialSpec.seed = 1000 * S + i``
(``i = 0`` is the untimed warm-up).  The program under test only ever
sees the generated :class:`~repro.engine.TrialSpec` values; the timed
call is the user-facing ``run_pif_trial(spec=...)`` /
``run_mutex_trial(spec=...)`` — execute + completion check +
Specification check + measurements.

Names are normative: ``BENCHMARK.json`` lists them, each with the one
line on why it exists (README.md has the long form), and later issues
cite them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.analysis.runner import TrialResult, run_mutex_trial, run_pif_trial
from repro.engine import ClusterOpts, ShardingOpts, TrialSpec, resolve

__all__ = ["WORKERS", "WORKLOADS", "Workload", "grid_probe_spec"]

#: Worker processes for the distributed engines: never more than two,
#: never more than the host has cores.
WORKERS = min(2, os.cpu_count() or 1)

_RUNNERS = {"pif": run_pif_trial, "me": run_mutex_trial}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``pif`` or ``me`` — which ``run_*_trial`` wrapper serves the trial.
    protocol: str
    requests_per_process: int
    #: TrialSpec axes at full scale, and the overrides of ``--scale tiny``
    #: (the smoke test's size: same engines and code paths, toy n).
    axes: dict[str, Any]
    tiny: dict[str, Any] = field(default_factory=dict)
    #: Timed trials that always run, whatever the time budget: the
    #: ``sim_digest`` and the exact-count comparison cover exactly these,
    #: so they name the same simulated work on any two commits.
    min_trials: int = 8

    def min_trials_at(self, scale: str) -> int:
        return 2 if scale == "tiny" else self.min_trials

    @property
    def distributed(self) -> bool:
        return self.axes["engine"] != "serial"

    def spec(self, ledger_seed: int, index: int, scale: str = "full") -> TrialSpec:
        axes = {**self.axes, **(self.tiny if scale == "tiny" else {})}
        return TrialSpec(seed=1000 * ledger_seed + index, **axes)

    def specs(self, ledger_seed: int, scale: str = "full") -> Iterator[TrialSpec]:
        """Warm-up spec first, then the timed trials, without end."""
        index = 0
        while True:
            yield self.spec(ledger_seed, index, scale)
            index += 1

    def run_trial(self, spec: TrialSpec) -> TrialResult:
        return _RUNNERS[self.protocol](
            spec=spec, requests_per_process=self.requests_per_process)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            # Dense fan-out: ~15 sends per activation, 45% rejected by a
            # full channel; transmit / try_admit / PIF dispatch bound.
            name="mutex_dense",
            protocol="me",
            requests_per_process=1,
            axes=dict(n=12, loss=0.0, engine="serial"),
            tiny=dict(n=4),
        ),
        Workload(
            # ~1.1 sends per activation, loss draws and resend timers:
            # scheduler / activation bound, bypasses the dense fan-out.
            name="pif_sparse",
            protocol="pif",
            requests_per_process=4,
            axes=dict(n=256, topology="ring", loss=0.1, engine="serial"),
            tiny=dict(n=16),
        ),
        Workload(
            # 16-tick windows, ~55 barriers, compute bound: waits for the
            # slower forked worker plus result shipping and trace merge.
            name="wan_sharded",
            protocol="pif",
            requests_per_process=1,
            axes=dict(n=128, topology="wan:4", loss=0.0, engine="sharded",
                      sharding=ShardingOpts(shards=WORKERS)),
            tiny=dict(n=16, topology="wan:2"),
        ),
        Workload(
            # 1-tick windows, ~340 barriers over localhost TCP, spawn +
            # rendezvous per trial: sync bound, not compute bound.
            name="lan_cluster",
            protocol="pif",
            requests_per_process=2,
            axes=dict(n=16, loss=0.1, engine="cluster",
                      cluster=ClusterOpts(hosts=WORKERS, sync="windowed")),
            tiny=dict(n=6),
        ),
    )
}


def grid_probe_spec(engine: str, *, n: int, seed: int) -> TrialSpec:
    """The fixed engine-grid probe: PIF, complete, loss 0, one request
    per process, :data:`WORKERS` workers on every backend that declares
    a worker-count axis (so a new backend is sized without an edit here)."""
    caps = resolve(engine).capabilities()
    return TrialSpec(
        n=n, seed=seed, engine=engine,
        sharding=ShardingOpts(shards=WORKERS if "shards" in caps else None),
        cluster=ClusterOpts(hosts=WORKERS if "hosts" in caps else None),
    )
