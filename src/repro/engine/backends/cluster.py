"""The window-sync backend: per-shard worker interpreters over real
sockets — registered here as ``engine=cluster``, and a second time, with
a narrower declared surface, as ``engine=sharded``
(:mod:`repro.engine.backends.sharded`).  A run hands back the merged
trace and no verdict: :func:`repro.analysis.runner.run_trial` judges it,
windowed or freerun, as it judges every engine's."""

from __future__ import annotations

from repro.net.cluster import ClusterSimulator
from repro.sim.topology import Topology
from repro.engine.base import (
    DRAIN_TICKS,
    EngineBackend,
    EngineRun,
    PreparedTrial,
    loss_model,
)
from repro.engine.registry import register
from repro.engine.spec import TrialSpec


class ClusterBackend(EngineBackend):
    """Worker interpreters (own OS processes) behind the wire format;
    ``sync=windowed`` reproduces serial results exactly, ``sync=freerun``
    is best-effort, its merged trace judged like any other.

    One runtime, any number of registrations: a registration is a name
    plus the capabilities it declares, and what a run reports follows
    from those — the ``hosts`` section of the provenance from declaring
    ``hosts``.
    """

    def __init__(
        self, name: str, summary: str, capabilities: frozenset[str]
    ) -> None:
        self.name = name
        self.summary = summary
        self._capabilities = capabilities

    def capabilities(self) -> frozenset[str]:
        return self._capabilities

    def engine(
        self, spec: TrialSpec, topology: Topology | None
    ) -> ClusterSimulator:
        # The worker count rides whichever axis the registration
        # declares; the capability gate left the other one unset.
        hosts = spec.cluster.hosts
        return ClusterSimulator(
            spec.n if topology is None else None,
            spec.protocol,
            topology=topology,
            seed=spec.seed,
            hosts=hosts if hosts is not None else spec.sharding.shards,
            window=spec.sharding.window,
            sync=spec.cluster.sync or "windowed",
            loss=loss_model(spec.loss),
            capacity=spec.capacity,
            latency=spec.latency,
            listen=spec.cluster.listen,
            fault_plan=spec.chaos.plan,
        )

    def run(self, prepared: PreparedTrial) -> EngineRun:
        spec = prepared.spec
        run = prepared.sim.run_trial(
            horizon=spec.horizon,
            scramble_seed=prepared.scramble_seed,
            driver=spec.driver,
            drain=DRAIN_TICKS,
            obs=prepared.obs,
        )
        run.engine = self.name
        if "hosts" not in self._capabilities:
            run.hosts = run.sync = run.worker_wall_s = None
            run.registry_round_trips = None
        return run

    def collect_obs(self, prepared: PreparedTrial, run: EngineRun) -> None:
        """Nothing to harvest: the workers shipped their own counters,
        merged into the recorder with the result."""


register(ClusterBackend(
    "cluster", "per-shard worker interpreters over real sockets",
    frozenset({"obs", "hosts", "sync", "cluster_listen", "window",
               "fault_plan"}),
))
