"""The sharded backend: the topology partitioned across forked worker
processes under the conservative time-window protocol."""

from __future__ import annotations

from typing import Any

from repro.core.protocols import build_protocol
from repro.sim.sharded import ShardedSimulator
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


class ShardedBackend(EngineBackend):
    """Forked worker processes with time-window barriers — bit-identical
    to serial for the same seed (``shard-equivalence`` CI gate)."""

    name = "sharded"
    summary = "forked worker processes, conservative time windows"

    def capabilities(self) -> frozenset[str]:
        return frozenset({"obs", "shards", "window"})

    def prepare(self, spec: TrialSpec, obs: Any = None) -> PreparedTrial:
        top = resolve_topology(spec.n, spec.topology, spec.seed)
        driver = normalized_driver(spec)
        sim = ShardedSimulator(
            spec.n if top is None else None,
            build_protocol(spec.protocol),
            topology=top,
            seed=spec.seed,
            shards=spec.sharding.shards,
            window=spec.sharding.window,
            loss=loss_model(spec.loss),
            capacity=spec.capacity,
            latency=spec.latency,
        )
        return PreparedTrial(
            spec=spec, topology=top, driver=driver, tag=driver["tag"],
            scramble_seed=scramble_seed_of(spec), obs=obs, sim=sim,
        )

    def run(self, prepared: PreparedTrial) -> EngineRun:
        sharded: ShardedSimulator = prepared.sim
        result = sharded.run_trial(
            horizon=prepared.spec.horizon,
            scramble_seed=prepared.scramble_seed,
            driver=prepared.driver,
            drain=DRAIN_TICKS,
            obs=prepared.obs,
        )
        return EngineRun(
            trace=result.trace,
            stats=result.stats,
            finals=result.finals,
            completions=result.completions,
            completed=result.completed,
            final_time=result.final_time,
            topology=sharded.topology,
            pids=sharded.pids,
            engine=self.name,
            window=result.window,
            barriers=result.barriers,
            sync_wall_s=result.sync_wall_s,
        )


register(ShardedBackend())
