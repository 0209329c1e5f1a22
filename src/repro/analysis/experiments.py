"""E1, E2 and E9 — the figure/theorem experiments.

* **E1** (:func:`run_figure1`): the paper's Figure 1 worst case — how far
  the two-process handshake advances on garbage alone, and where causality
  kicks in.
* **E2** (:func:`run_impossibility_experiment`): Theorem 1 end-to-end, plus
  the bounded-capacity refutation.
* **E9** (:func:`run_property1_check`, :func:`run_capacity_sweep`):
  Property 1 (channel flushing) and the capacity-``c`` extension with flag
  domain {0..c+3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.pif import PifLayer
from repro.errors import SimulationError
from repro.impossibility.construction import (
    ImpossibilityResult,
    attempt_on_bounded,
    demonstrate_impossibility,
)
from repro.sim.adversary import figure1_configuration
from repro.sim.runtime import Simulator
from repro.sim.trace import EventKind
from repro.spec.pif_spec import check_pif
from repro.types import RequestState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.spec import TrialSpec

__all__ = [
    "Figure1Result",
    "run_fault_model_sweep",
    "run_figure1",
    "run_impossibility_experiment",
    "run_property1_check",
    "run_capacity_sweep",
    "run_topology_matrix",
]


@dataclass
class Figure1Result:
    """Measured worst-case handshake behaviour (Figure 1)."""

    #: State_p[q] at the moment q generated the receive-brd event — every
    #: increment up to here was driven by garbage or stale echoes.
    spurious_level: int
    #: (time, new_state) for every increment of State_p[q].
    increments: list[tuple[int, int]]
    brd_time: int
    fck_time: int
    decide_time: int
    spec_ok: bool


def run_figure1(seed: int = 0, horizon: int = 50_000) -> Figure1Result:
    """Reproduce the Figure 1 worst case on a two-process system.

    Asserts the paper's claim: ``State_p[q]`` may be pushed up to 3 by the
    initial configuration, but the 3 → 4 switch (the receive-fck) happens
    only after ``q`` genuinely received the broadcast (receive-brd at ``q``
    precedes receive-fck at ``p``).
    """
    sim = Simulator(
        2, lambda h: h.register(PifLayer("pif")), seed=seed
    )
    p, q = figure1_configuration(sim, tag="pif")
    layer: PifLayer = sim.layer(p, "pif")  # type: ignore[assignment]

    # Sample State_p[q] every tick; flag increments are one-per-delivery,
    # so a per-tick poll can at worst batch same-tick increments together.
    layer.request_broadcast("fig1")
    increments: list[tuple[int, int]] = []
    prev = layer.state[q]
    deadline = sim.now + horizon
    while sim.now < deadline:
        sim.scheduler.run_until(sim.now + 1)
        current = layer.state[q]
        if current < prev:
            # A1 reset the flag to 0 within this tick; any advance beyond 0
            # in the same tick is already an increment.
            for value in range(1, current + 1):
                increments.append((sim.now, value))
        elif current > prev:
            for value in range(prev + 1, current + 1):
                increments.append((sim.now, value))
        prev = current
        if layer.request is RequestState.DONE:
            break
    if layer.request is not RequestState.DONE:
        raise SimulationError("figure-1 wave never decided")

    brd = sim.trace.first(EventKind.RECEIVE_BRD, tag="pif", wave=(p, 1))
    fck = sim.trace.first(EventKind.RECEIVE_FCK, tag="pif", wave=(p, 1))
    decide = sim.trace.first(EventKind.DECIDE, tag="pif", wave=(p, 1))
    if brd is None or fck is None or decide is None:
        raise SimulationError("figure-1 trace incomplete")
    spurious = max(
        (state for t, state in increments if t < brd.time), default=0
    )
    verdict = check_pif(sim.trace, "pif", sim.pids, require_all_decided=False)
    return Figure1Result(
        spurious_level=spurious,
        increments=increments,
        brd_time=brd.time,
        fck_time=fck.time,
        decide_time=decide.time,
        spec_ok=verdict.ok,
    )


def run_impossibility_experiment(
    n: int = 3, seed: int = 0
) -> dict[str, Any]:
    """E2: Theorem 1 demonstration plus its bounded-capacity refutation."""
    result: ImpossibilityResult = demonstrate_impossibility(n, seed=seed)
    bounded_error = attempt_on_bounded(result.fragments, capacity=1)
    return {
        "n": n,
        "unbounded_violated": result.violated,
        "max_concurrency": result.max_concurrency,
        "messages_preloaded": result.messages_preloaded,
        "max_channel_depth": result.max_channel_depth,
        "bounded_construction_fails": bounded_error is not None,
        "bounded_error": str(bounded_error)[:100],
    }


def run_property1_check(
    n: int = 4, seed: int = 0, horizon: int = 200_000
) -> dict[str, Any]:
    """E9a: Property 1 — a complete wave flushes the initiator's channels.

    Injects identifiable garbage into every channel from and to the
    initiator, runs one complete PIF computation, and verifies none of the
    injected objects is still in flight in those channels.
    """
    sim = Simulator(n, lambda h: h.register(PifLayer("pif")), seed=seed)
    initiator = sim.pids[0]
    injected: list[Any] = []
    rng = sim.rng
    for q in sim.network.peers_of(initiator):
        for src, dst in ((initiator, q), (q, initiator)):
            channel = sim.network.channel(src, dst)
            if not channel.is_full_for("pif"):
                layer: PifLayer = sim.layer(src, "pif")  # type: ignore[assignment]
                garbage = layer.garbage_message(rng)
                sim.inject(src, dst, garbage)
                injected.append(garbage)

    layer0: PifLayer = sim.layer(initiator, "pif")  # type: ignore[assignment]
    layer0.request_broadcast("flush-me")
    done = sim.run(horizon, until=lambda s: layer0.request is RequestState.DONE)
    if not done:
        raise SimulationError("Property-1 wave never decided")
    leftovers = 0
    for channel in sim.network.channels_of(initiator):
        for msg in channel.contents():
            if any(msg is g for g in injected):
                leftovers += 1
    return {
        "n": n,
        "seed": seed,
        "injected": len(injected),
        "leftover_initial_messages": leftovers,
        "property1_holds": leftovers == 0,
    }


def run_fault_model_sweep(
    n: int = 3,
    seeds: list[int] | None = None,
    *,
    horizon: int = 3_000_000,
) -> list[dict[str, Any]]:
    """E10: PIF under fault models, within and beyond the paper's model.

    Loss models that respect channel fairness (Bernoulli, bursty
    Gilbert–Elliott, deterministic periodic, targeted per-tag) are *within*
    the paper's fault model: Specification 1 must hold with zero violations.
    Ongoing in-flight header corruption is *outside* it (the paper assumes
    transient faults cease before the guarantee applies): liveness still
    holds, but safety violations may — and occasionally do — occur, which
    maps the guarantee's boundary.  Each row carries a ``within_model``
    flag.
    """
    from repro.core.requests import RequestDriver
    from repro.sim.faults import (
        GilbertElliottLoss,
        HeaderCorruption,
        PeriodicLoss,
        TargetedLoss,
    )
    from repro.sim.channel import BernoulliLoss

    if seeds is None:
        seeds = [0, 1, 2]
    scenarios: list[tuple[str, Any, Any, bool]] = [
        ("bernoulli-30%", lambda: BernoulliLoss(0.3), None, True),
        (
            "gilbert-elliott",
            lambda: GilbertElliottLoss(p_good=0.05, p_bad=0.7, p_gb=0.1, p_bg=0.2),
            None,
            True,
        ),
        ("periodic-1/2", lambda: PeriodicLoss(2), None, True),
        ("targeted-60%", lambda: TargetedLoss({"pif"}, p=0.6), None, True),
        ("header-corruption-20%", None, lambda: HeaderCorruption(p=0.2), False),
    ]
    rows: list[dict[str, Any]] = []
    for name, loss_factory, corruption_factory, within_model in scenarios:
        ok = 0
        violations = 0
        messages = 0
        for seed in seeds:
            sim = Simulator(
                n,
                lambda h: h.register(PifLayer("pif")),
                seed=seed,
                loss=loss_factory() if loss_factory else None,
                corruption=corruption_factory() if corruption_factory else None,
            )
            sim.scramble(seed=seed ^ 0xFA17)
            driver = RequestDriver(
                sim, "pif", requests_per_process=1,
                payload=lambda pid, k: f"m{pid}",
            )
            done = sim.run(horizon, until=lambda s: driver.done)
            if not done:
                raise SimulationError(
                    f"fault sweep {name!r} (seed {seed}) never finished"
                )
            verdict = check_pif(sim.trace, "pif", sim.pids)
            ok += 1 if verdict.ok else 0
            violations += len(verdict.violations)
            messages += sim.stats.sent
        rows.append(
            {
                "model": name,
                "within_model": within_model,
                "trials": len(seeds),
                "ok": ok,
                "violations": violations,
                "messages_mean": round(messages / len(seeds), 1),
            }
        )
    return rows


def run_topology_matrix(
    base: TrialSpec,
    *,
    topologies: list[str] | None = None,
    losses: list[float] | None = None,
    seeds: list[int] | None = None,
    protocol: str = "pif",
) -> list[dict[str, Any]]:
    """E11: the topology × fault scenario matrix.

    Runs scrambled trials of ``protocol`` (a kind or command name of
    :data:`repro.core.protocols.PROTOCOLS`) for every combination of
    topology spec and loss rate, checking the topology-generalized
    specification, and returns one aggregate row per scenario.  This is
    the sweep the ``--topology`` axis exists for: every cell must report
    zero violations.  Weighted specs (``"wan:K"``) ride the same axis — a
    row's ``weighted`` flag marks cells whose edges carry their own
    latency bounds, so uniform vs WAN cells of the same graph sit side by
    side.

    ``base`` carries every axis the cells share — system size, engine and
    its option sections, latency, horizon; each cell trial replaces only
    topology/seed/loss.  Serial, sharded, async-loopback and
    cluster produce identical rows for the same seeds.
    """
    from dataclasses import replace

    from repro.analysis.runner import run_trial
    from repro.core.protocols import protocol_named
    from repro.sim.topology import topology_from_spec

    if topologies is None:
        topologies = ["complete", "ring", "star", "grid", "gnp:0.35", "clustered:2"]
    if losses is None:
        losses = [0.0, 0.2]
    if seeds is None:
        seeds = [0, 1, 2]
    row = protocol_named(protocol)
    rows: list[dict[str, Any]] = []
    for spec in topologies:
        top = topology_from_spec(spec, base.n)  # the row's metadata only
        meta = top.describe()
        for loss in losses:
            ok = 0
            violations = 0
            messages = 0
            final_time = 0
            for seed in seeds:
                cell = replace(base, topology=spec, seed=seed, loss=loss)
                trial = run_trial(row.describe(cell, requests_per_process=1))
                ok += 1 if trial.ok else 0
                violations += trial.violations
                messages += trial.measurements["messages"]
                final_time += trial.measurements["final_time"]
            rows.append(
                {
                    "topology": meta["topology"],
                    "engine": base.engine,
                    # A weighted spec ("wan:K", or an explicit latency map)
                    # changes per-edge delivery times, not the graph — the
                    # flag lets matrix rows compare uniform vs WAN cells.
                    "weighted": top.is_weighted,
                    "diameter": meta["diameter"],
                    "max_degree": meta["max_degree"],
                    "loss": loss,
                    "trials": len(seeds),
                    "ok": ok,
                    "violations": violations,
                    "messages_mean": round(messages / len(seeds), 1),
                    "time_mean": round(final_time / len(seeds), 1),
                }
            )
    return rows


def run_capacity_sweep(
    capacities: list[int] | None = None,
    *,
    n: int = 3,
    seeds: list[int] | None = None,
) -> list[dict[str, Any]]:
    """E9b: capacity-c channels with flag domain {0..c+3} stay correct."""
    from repro.analysis.runner import run_pif_trial
    from repro.engine.spec import TrialSpec

    if capacities is None:
        capacities = [1, 2, 4]
    if seeds is None:
        seeds = [0, 1, 2]
    rows: list[dict[str, Any]] = []
    for c in capacities:
        ok = 0
        violations = 0
        for seed in seeds:
            trial = run_pif_trial(
                TrialSpec(n=n, seed=seed, capacity=c),
                requests_per_process=1, max_state=c + 3,
            )
            ok += 1 if trial.ok else 0
            violations += trial.violations
        rows.append(
            {
                "capacity": c,
                "max_state": c + 3,
                "trials": len(seeds),
                "ok": ok,
                "violations": violations,
            }
        )
    return rows
