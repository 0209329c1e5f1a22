"""The window-sync backend: per-shard worker interpreters over real
sockets — registered here as ``engine=cluster``, and a second time, with
a narrower declared surface, as ``engine=sharded``
(:mod:`repro.engine.backends.sharded`).  A run hands back the merged
trace and no verdict: :func:`repro.analysis.runner.run_trial` judges it
as it judges every engine's."""

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
from repro.errors import SpecError


class ClusterBackend(EngineBackend):
    """Worker interpreters (own OS processes) behind the wire format,
    synchronised by time windows: a run reproduces serial results
    exactly.

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
        axis = "hosts" if "hosts" in self._capabilities else "shards"
        hosts = spec.cluster.hosts if axis == "hosts" else spec.sharding.shards
        n = spec.n if topology is None else topology.n
        if hosts is not None and not 1 <= hosts <= n:
            raise SpecError(
                f"{axis} must be in 1..{n} (a shard hosts at least one "
                f"process), got {hosts}",
                backend=self.name, field=axis,
            )
        return ClusterSimulator(
            spec.n if topology is None else None,
            spec.protocol,
            topology=topology,
            seed=spec.seed,
            hosts=hosts,
            window=spec.sharding.window,
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
            run.hosts = run.worker_wall_s = None
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
