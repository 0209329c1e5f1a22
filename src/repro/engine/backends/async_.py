"""The async backend: the asyncio runtime over pluggable transports.

Transports are their own registry (:mod:`repro.net.transport`) — this
backend's capability set is *computed* from it, so a new transport (udp
was the first) lights up ``engine=async --transport <name>`` everywhere
without touching this module.
"""

from __future__ import annotations

from typing import Any

from repro.core.protocols import build_protocol
from repro.net.engine import AsyncSimulator
from repro.net.monitors import default_monitors
from repro.net.transport import resolve_transport, transport_names
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
from repro.errors import SpecError


class AsyncBackend(EngineBackend):
    """One event loop, one transport per channel; loopback runs the
    serial scheduler and is bit-identical to serial, paced transports are
    wall-clock best-effort with online monitors carrying the correctness
    claim."""

    name = "async"
    summary = "asyncio runtime; transport registry selects the medium"

    def capabilities(self) -> frozenset[str]:
        return frozenset(
            {"obs", "tick", "fault_plan"}
            | {f"transport:{name}" for name in transport_names()}
        )

    def validate(self, spec: TrialSpec) -> None:
        kind = resolve_transport(spec.transport.transport)
        if spec.transport.tick is not None and not kind.paced:
            raise SpecError(
                f"tick={spec.transport.tick!r} requires a wall-clock-paced "
                f"transport ({self._paced_names()}); transport="
                f"{kind.name!r} runs virtual time",
                backend=self.name, field="tick")
        if spec.chaos.plan is not None:
            spec.chaos.plan.validate_for_async(spec.transport.transport)

    @staticmethod
    def _paced_names() -> str:
        return " or ".join(
            repr(name) for name in transport_names()
            if resolve_transport(name).paced
        )

    def prepare(self, spec: TrialSpec, obs: Any = None) -> PreparedTrial:
        top = resolve_topology(spec.n, spec.topology, spec.seed)
        driver = normalized_driver(spec)
        tick = spec.transport.tick
        sim = AsyncSimulator(
            spec.n if top is None else None,
            build_protocol(spec.protocol),
            topology=top,
            seed=spec.seed,
            loss=loss_model(spec.loss),
            capacity=spec.capacity,
            latency=spec.latency,
            transport=spec.transport.transport,
            fault_plan=spec.chaos.plan,
            **({} if tick is None else {"tick": tick}),
        )
        tag = driver["tag"]
        for monitor in default_monitors(
                tag, sim.topology, spec.protocol.get("idents")):
            sim.trace.attach(monitor)
        return PreparedTrial(
            spec=spec, topology=top, driver=driver, tag=tag,
            scramble_seed=scramble_seed_of(spec), obs=obs, sim=sim,
        )

    def run(self, prepared: PreparedTrial) -> EngineRun:
        spec = prepared.spec
        sim: AsyncSimulator = prepared.sim
        with prepared.phase("trial", transport=spec.transport.transport):
            result = sim.run_trial(
                horizon=spec.horizon,
                scramble_seed=prepared.scramble_seed,
                driver=prepared.driver,
                drain=DRAIN_TICKS,
            )
        return EngineRun(
            trace=result.trace,
            stats=result.stats,
            finals=result.finals,
            completions=result.completions,
            completed=result.completed,
            final_time=result.final_time,
            topology=sim.topology,
            pids=sim.pids,
            engine=self.name,
            transport=spec.transport.transport,
            monitor_reports=result.monitor_reports,
            fault_counts=(
                dict(sim.fault_counts)
                if spec.chaos.plan is not None else None
            ),
        )

    def collect_obs(self, prepared: PreparedTrial, run: EngineRun) -> None:
        if prepared.obs is not None:
            prepared.obs.collect_sim(prepared.sim)


register(AsyncBackend())
