"""The cluster backend: per-shard worker interpreters over real sockets."""

from __future__ import annotations

from typing import Any

from repro.net.cluster import ClusterSimulator
from repro.net.monitors import default_monitors
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
    is best-effort under the replayed monitor verdicts."""

    name = "cluster"
    summary = "per-shard worker interpreters over real sockets"

    def capabilities(self) -> frozenset[str]:
        return frozenset(
            {"obs", "hosts", "sync", "cluster_listen", "window",
             "fault_plan"}
        )

    def prepare(self, spec: TrialSpec, obs: Any = None) -> PreparedTrial:
        top = resolve_topology(spec.n, spec.topology, spec.seed)
        driver = normalized_driver(spec, picklable=True)
        sim = ClusterSimulator(
            spec.n if top is None else None,
            spec.protocol,
            topology=top,
            seed=spec.seed,
            hosts=spec.cluster.hosts,
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
        # The workers ran monitor-free (their slices see only local
        # emissions); replay the automata over the merged trace's rows of
        # their kinds.  Windowed runs merge to the exact serial trace, so
        # the verdicts are the offline ones; freerun runs make these the
        # correctness claim.
        monitors = default_monitors(
            prepared.tag, cluster.topology, spec.protocol.get("idents"))
        for monitor in monitors:
            for time, kind, process, data in result.trace.scan(
                    *monitor.automaton.KINDS):
                monitor.observe(time, kind, process, data)
        chaos = spec.chaos.plan is not None
        return EngineRun(
            trace=result.trace,
            stats=result.stats,
            finals=result.finals,
            completions=result.completions,
            completed=result.completed,
            final_time=result.final_time,
            topology=cluster.topology,
            pids=cluster.pids,
            engine=self.name,
            monitor_reports=[m.report() for m in monitors],
            window=result.window,
            barriers=result.barriers,
            sync_wall_s=result.sync_wall_s,
            hosts=cluster.n_shards,
            sync=result.sync,
            worker_wall_s=result.worker_wall_s,
            registry_round_trips=result.registry_round_trips,
            fault_counts=dict(result.fault_counts) if chaos else None,
            recoveries=result.recoveries if chaos else None,
            replayed_rounds=result.replayed_rounds if chaos else None,
        )


register(ClusterBackend())
