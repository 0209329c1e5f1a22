"""The async backend: the asyncio runtime over pluggable transports.

Transports are their own registry (:mod:`repro.net.transport`) — this
backend's capability set is *computed* from it, so a new transport (udp
was the first) lights up ``engine=async --transport <name>`` everywhere
without touching this module.
"""

from __future__ import annotations

from repro.core.protocols import build_protocol
from repro.net.engine import AsyncSimulator
from repro.net.transport import resolve_transport, transport_names
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


class AsyncBackend(EngineBackend):
    """One event loop, one transport per channel; loopback runs the
    serial scheduler and is bit-identical to serial, paced transports are
    wall-clock best-effort, their trace judged like any other."""

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

    def engine(
        self, spec: TrialSpec, topology: Topology | None
    ) -> AsyncSimulator:
        tick = spec.transport.tick
        return AsyncSimulator(
            spec.n if topology is None else None,
            build_protocol(spec.protocol),
            topology=topology,
            seed=spec.seed,
            loss=loss_model(spec.loss),
            capacity=spec.capacity,
            latency=spec.latency,
            transport=spec.transport.transport,
            fault_plan=spec.chaos.plan,
            **({} if tick is None else {"tick": tick}),
        )

    def run(self, prepared: PreparedTrial) -> EngineRun:
        spec = prepared.spec
        with prepared.phase("trial", transport=spec.transport.transport):
            return prepared.sim.run_trial(
                horizon=spec.horizon,
                scramble_seed=prepared.scramble_seed,
                driver=spec.driver,
                drain=DRAIN_TICKS,
            )


register(AsyncBackend())
