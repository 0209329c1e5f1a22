"""Snap-stabilizing aggregation (reduce) on top of Protocol PIF.

One wave computes ``reduce(op, values)`` over a per-process value provider:
the initiator broadcasts an aggregation request; every process feeds back
its current value; the initiator folds the answers.  IDs-Learning
(Algorithm 2) is precisely the instance ``op = min`` over identities — this
layer generalizes it to arbitrary associative operators (sum, max, min,
...), the way PIF-based protocols are used for global function computation.

On the paper's complete graph one wave aggregates over the whole system; on
a pluggable topology it aggregates over the initiator's *closed
neighbourhood* (the wave's reach) — :func:`run_aggregation_demo` reports
both the result and the covered processes so the scope is explicit.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from repro.core.pif import PifClient, PifLayer
from repro.sim.process import Action, Layer
from repro.sim.trace import EventKind
from repro.types import RequestState

__all__ = ["AggregationLayer", "AGG", "run_aggregation_demo"]

AGG = "AGG"

ValueProvider = Callable[[], float]


class AggregationLayer(Layer, PifClient):
    """Computes a global reduction in one confirmed wave."""

    STATE = ("request", "collected", "result")

    def __init__(
        self,
        tag: str = "agg",
        value_provider: ValueProvider | None = None,
        op: Callable[[float, float], float] = lambda a, b: a + b,
    ) -> None:
        super().__init__(tag)
        self.pif = PifLayer(f"{tag}/pif", client=self)
        self.value_provider: ValueProvider = (
            value_provider if value_provider is not None else (lambda: 0.0)
        )
        self.op = op
        self.request: RequestState = RequestState.DONE
        self.collected: dict[int, float] = {}
        #: Result of the last completed aggregation (None before the first).
        self.result: float | None = None

    def sublayers(self) -> Sequence[Layer]:
        return (self.pif,)

    # -- external interface ---------------------------------------------------

    def request_aggregate(self) -> None:
        """Start a global reduction; ``result`` is valid once Done."""
        self.request = RequestState.WAIT
        if self.host is not None:
            self.host.emit(EventKind.REQUEST, tag=self.tag)

    external_request = request_aggregate

    # -- actions -----------------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        return (
            Action("G1", self._guard_start, self._action_start),
            Action("G2", self._guard_decide, self._action_decide),
        )

    def _guard_start(self) -> bool:
        return self.request is RequestState.WAIT

    def _action_start(self) -> None:
        assert self.host is not None
        self.request = RequestState.IN
        self.collected = {}
        self.host.emit(EventKind.START, tag=self.tag)
        self.pif.request_broadcast(AGG)

    def _guard_decide(self) -> bool:
        return (
            self.request is RequestState.IN
            and self.pif.request is RequestState.DONE
        )

    def _action_decide(self) -> None:
        assert self.host is not None
        accumulator = float(self.value_provider())
        for q in sorted(self.collected):
            accumulator = self.op(accumulator, self.collected[q])
        self.result = accumulator
        self.request = RequestState.DONE
        self.host.emit(EventKind.DECIDE, tag=self.tag, result=accumulator)

    # -- PIF upcalls ------------------------------------------------------------------

    def on_broadcast(self, sender: int, payload: Any) -> Any | None:
        if payload == AGG:
            return ("VAL", float(self.value_provider()))
        return None

    def on_feedback(self, sender: int, payload: Any) -> None:
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "VAL"
            and isinstance(payload[1], float)
        ):
            self.collected[sender] = payload[1]

    def broadcast_domain(self) -> Sequence[Any]:
        return (AGG,)

    def feedback_domain(self) -> Sequence[Any]:
        return (("VAL", 0.0), ("VAL", 1.0), ("VAL", -3.5))

    # -- adversary interface ---------------------------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        assert self.host is not None
        self.request = rng.choice(list(RequestState))
        self.collected = {
            q: rng.uniform(-100, 100)
            for q in self.host.others
            if rng.random() < 0.5
        }
        self.result = rng.uniform(-100, 100) if rng.random() < 0.5 else None


_OPS: dict[str, Callable[[float, float], float]] = {
    "sum": lambda a, b: a + b,
    "min": min,
    "max": max,
}


def run_aggregation_demo(
    n: int = 4,
    *,
    topology: "object | str | None" = None,
    op: str = "sum",
    seed: int = 0,
    initiator: int | None = None,
    scramble: bool = True,
    horizon: int = 500_000,
) -> dict[str, Any]:
    """One aggregation wave over ``value(p) = p * 10``; returns a result row.

    ``topology`` takes a Topology, a spec string (``"ring"``, ``"gnp:0.3"``,
    ...), or None for the complete graph.  The wave covers the initiator's
    closed neighbourhood; the row records that scope alongside the result
    and the ground-truth expectation over it.
    """
    from repro.errors import SimulationError
    from repro.sim.runtime import Simulator

    if op not in _OPS:
        raise SimulationError(f"unknown aggregation op {op!r}; one of {sorted(_OPS)}")
    fold = _OPS[op]
    sim = Simulator(
        n,
        lambda host: host.register(
            AggregationLayer(
                "agg", value_provider=lambda pid=host.pid: float(pid * 10),
                op=fold,
            )
        ),
        topology=topology,
        seed=seed,
    )
    if scramble:
        sim.scramble(seed=seed ^ 0x5EED)
    pid = initiator if initiator is not None else sim.pids[0]
    layer = sim.layer(pid, "agg")
    layer.request_aggregate()
    done = sim.run(
        horizon,
        until=lambda s: layer.request is RequestState.DONE and layer.result is not None,
    )
    if not done:
        raise SimulationError(f"aggregation wave never decided within t={horizon}")
    covered = (pid,) + sim.network.peers_of(pid)
    values = [float(q * 10) for q in covered]
    expected = values[0]
    for value in values[1:]:
        expected = fold(expected, value)
    return {
        "topology": sim.topology.name,
        "initiator": pid,
        "op": op,
        "covered": len(covered),
        "result": layer.result,
        "expected": expected,
        "correct": layer.result == expected,
        "time": sim.now,
        "messages": sim.stats.sent,
    }
