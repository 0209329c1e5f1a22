"""The window-sync backend: per-shard worker interpreters over real
sockets — registered here as ``engine=cluster``, and a second time, with
a narrower declared surface, as ``engine=sharded``
(:mod:`repro.engine.backends.sharded`)."""

from __future__ import annotations

from typing import Any

from repro.net.cluster import ClusterSimulator
from repro.engine.base import (
    DRAIN_TICKS,
    EngineBackend,
    EngineRun,
    PreparedTrial,
    loss_model,
    normalized_driver,
    resolve_topology,
    scramble_seed_of,
)
from repro.engine.registry import register
from repro.engine.spec import TrialSpec


class ClusterBackend(EngineBackend):
    """Worker interpreters (own OS processes) behind the wire format;
    ``sync=windowed`` reproduces serial results exactly, ``sync=freerun``
    is best-effort under the replayed monitor verdicts.

    One runtime, any number of registrations: a registration is a name
    plus the capabilities it declares, and what a run reports follows
    from those — the ``hosts`` section of the provenance from declaring
    ``hosts``, the replayed monitor verdicts from declaring ``sync``
    (without it no run can be freerun, every run merges to the exact
    serial trace, and the offline check is the verdict).
    """

    def __init__(
        self, name: str, summary: str, capabilities: frozenset[str]
    ) -> None:
        self.name = name
        self.summary = summary
        self._capabilities = capabilities

    def capabilities(self) -> frozenset[str]:
        return self._capabilities

    def prepare(self, spec: TrialSpec, obs: Any = None) -> PreparedTrial:
        top = resolve_topology(spec.n, spec.topology, spec.seed)
        driver = normalized_driver(spec, picklable=True)
        # The worker count rides whichever axis the registration
        # declares; the capability gate left the other one unset.
        hosts = spec.cluster.hosts
        sim = ClusterSimulator(
            spec.n if top is None else None,
            spec.protocol,
            topology=top,
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
        return PreparedTrial(
            spec=spec, topology=top, driver=driver, tag=driver["tag"],
            scramble_seed=scramble_seed_of(spec), obs=obs, sim=sim,
        )

    def run(self, prepared: PreparedTrial) -> EngineRun:
        spec = prepared.spec
        cluster: ClusterSimulator = prepared.sim
        result = cluster.run_trial(
            horizon=spec.horizon,
            scramble_seed=prepared.scramble_seed,
            driver=prepared.driver,
            drain=DRAIN_TICKS,
            obs=prepared.obs,
        )
        run = EngineRun(
            trace=result.trace,
            stats=result.stats,
            finals=result.finals,
            completions=result.completions,
            completed=result.completed,
            final_time=result.final_time,
            topology=cluster.topology,
            pids=cluster.pids,
            engine=self.name,
            window=result.window,
            barriers=result.barriers,
            sync_wall_s=result.sync_wall_s,
        )
        if "sync" in self._capabilities:
            # The workers ran monitor-free (their slices see only local
            # emissions); replay the automata over the merged trace's
            # rows of their kinds.  Windowed runs merge to the exact
            # serial trace, so the verdicts are the offline ones; freerun
            # runs make these the correctness claim.
            from repro.net.monitors import default_monitors

            monitors = default_monitors(
                prepared.tag, cluster.topology, spec.protocol.get("idents"))
            for monitor in monitors:
                for time, kind, process, data in result.trace.scan(
                        *monitor.automaton.KINDS):
                    monitor.observe(time, kind, process, data)
            run.monitor_reports = [m.report() for m in monitors]
        if "hosts" in self._capabilities:
            run.hosts = cluster.n_shards
            run.sync = result.sync
            run.worker_wall_s = result.worker_wall_s
            run.registry_round_trips = result.registry_round_trips
        if spec.chaos.plan is not None:
            run.fault_counts = dict(result.fault_counts)
            run.recoveries = result.recoveries
            run.replayed_rounds = result.replayed_rounds
        return run


register(ClusterBackend(
    "cluster", "per-shard worker interpreters over real sockets",
    frozenset({"obs", "hosts", "sync", "cluster_listen", "window",
               "fault_plan"}),
))
