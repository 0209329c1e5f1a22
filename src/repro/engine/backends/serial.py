"""The serial backend: one in-process discrete-event scheduler."""

from __future__ import annotations

from repro.core.protocols import build_protocol
from repro.core.requests import RequestDriver
from repro.errors import HorizonExceeded
from repro.sim.runtime import Simulator
from repro.sim.topology import Topology
from repro.sim.trace import EventKind, Trace
from repro.engine.base import (
    DRAIN_TICKS,
    EngineBackend,
    EngineRun,
    PreparedTrial,
    loss_model,
)
from repro.engine.registry import register
from repro.engine.spec import TrialSpec


class _RoundBudgetGuard:
    """Incremental CS-grant counter over a growing trace.

    ``exceeded`` is evaluated inside the serial engine's stop predicate —
    after every event — so it watches the trace's *live* CS_ENTER kind
    index: the steady-state cost is one ``len()`` per event, and payload
    dicts are inspected only for the (rare) critical-section entries
    appended since the last call.
    """

    def __init__(self, trace: Trace, tag: str, budget: int) -> None:
        self._rows = trace.kind_rows(EventKind.CS_ENTER)
        self._data_at = trace.data_at
        self._tag = tag
        self.budget = budget
        self.rounds = 0
        self._cursor = 0

    def exceeded(self) -> bool:
        rows = self._rows
        while self._cursor < len(rows):
            if self._data_at(rows[self._cursor]).get("tag") == self._tag:
                self.rounds += 1
            self._cursor += 1
        return self.rounds > self.budget


class SerialBackend(EngineBackend):
    """One in-process scheduler — the reference engine every other
    backend's equivalence gate compares against."""

    name = "serial"
    summary = "one in-process scheduler (the bit-identity reference)"

    def capabilities(self) -> frozenset[str]:
        return frozenset({"obs", "round_budget"})

    def engine(self, spec: TrialSpec, topology: Topology | None) -> Simulator:
        return Simulator(
            spec.n if topology is None else None,
            build_protocol(spec.protocol),
            topology=topology,
            seed=spec.seed,
            loss=loss_model(spec.loss),
            capacity=spec.capacity,
            latency=spec.latency,
        )

    def run(self, prepared: PreparedTrial) -> EngineRun:
        spec = prepared.spec
        sim: Simulator = prepared.sim
        horizon: int = spec.horizon  # type: ignore[assignment]
        if prepared.scramble_seed is not None:
            with prepared.phase("scramble"):
                sim.scramble(seed=prepared.scramble_seed)
        # The driver halts the run itself, in the tick that serves its
        # last request; only the round-budget guard still needs a
        # per-event predicate.
        drv = RequestDriver(sim, halt_when_done=True, **spec.driver)
        with prepared.phase("serve"):
            guard = None
            if spec.round_budget is not None:
                guard = _RoundBudgetGuard(sim.trace, prepared.tag,
                                          spec.round_budget)
            if not drv.done:
                sim.run(horizon, until=None if guard is None
                        else (lambda s: guard.exceeded()))
            completed = drv.done
            if guard is not None and not completed and guard.rounds > guard.budget:
                raise HorizonExceeded(
                    f"round budget of {guard.budget} CS grants "
                    f"exhausted at t={sim.now} before all requests were "
                    f"served",
                    horizon=horizon,
                    served=drv.total_completed(),
                    requested=drv.total_planned(),
                    rounds=guard.rounds,
                )
            drv.halt_when_done = False  # a horizon-cut serve: the drain runs on
        with prepared.phase("drain"):
            sim.run(sim.now + DRAIN_TICKS)
        return EngineRun(
            trace=sim.trace,
            stats=sim.stats,
            finals={p: sim.layer(p, prepared.tag).request for p in sim.pids},
            completions=drv.completed(),
            completed=completed,
            final_time=sim.now,
            topology=sim.topology,
            pids=sim.pids,
            engine=self.name,
        )


register(SerialBackend())
