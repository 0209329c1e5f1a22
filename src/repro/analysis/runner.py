"""Experiment runners: one function per trial type, plus parameter sweeps.

Each ``run_*_trial(spec, ...)`` takes a :class:`~repro.engine.TrialSpec`
naming the trial's axes (size, topology, seed, loss, engine and its
option sections — built by hand, or once per command by
:meth:`TrialSpec.from_cli_args`), fills in the experiment part — the
``protocol`` description, the request-driver config and the
per-experiment horizon default — and hands it to the
:func:`repro.engine.execute` pipeline (spec → registry → backend → trace
→ specs/monitors → provenance).  It then checks the relevant
specification over the returned trace and returns a flat
:class:`TrialResult` ready for table rendering (experiments E3, E4, E5,
E7 of DESIGN.md).  A variation of a trial is a
:func:`dataclasses.replace` of its spec.

The ``engine`` axis is answered by the backend registry
(:mod:`repro.engine.registry`): ``serial``, ``sharded``, ``async`` and
``cluster`` are built in, and all execute the *same* trial shape —
build, scramble, drive requests until served, drain
:data:`~repro.engine.DRAIN_TICKS`.  Deterministic configurations
(``serial``, ``sharded``, ``async``+``loopback``,
``cluster``+``windowed``) produce bit-identical traces for the same
seed, so every specification check and measurement below is
engine-agnostic; best-effort configurations (paced transports, cluster
freerun) carry their correctness in the online monitor verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.engine import DRAIN_TICKS, EngineRun, TrialSpec, execute
from repro.engine.base import resolve_topology as _resolve_topology
from repro.errors import HorizonExceeded, SimulationError
from repro.sim.topology import Topology
from repro.sim.trace import EventKind, Trace
from repro.spec.idl_spec import check_idl
from repro.spec.mutex_spec import check_mutex
from repro.spec.pif_spec import check_pif
from repro.spec.table import scope
from repro.spec.waves import extract_waves
from repro.analysis.metrics import summarize

__all__ = [
    "TrialResult",
    "EngineRun",
    "DRAIN_TICKS",
    "TRIALS",
    "run_pif_trial",
    "run_idl_trial",
    "run_mutex_trial",
    "sweep_pif",
    "sweep_mutex",
    "pif_scaling_row",
]

#: Per-experiment horizon defaults, applied when the spec names none
#: (the ME budget is larger: convergence on rings).
PIF_HORIZON = 2_000_000
IDL_HORIZON = 2_000_000
MUTEX_HORIZON = 6_000_000


@dataclass
class TrialResult:
    """Outcome of one trial: verdict plus measurements.

    ``measurements`` holds trace-derived quantities only — identical
    across engines for the same seed, which is what the equivalence gates
    compare.  Run provenance (which engine/transport executed the trial,
    its wall-clock cost, online monitor verdicts) lives in ``provenance``
    so bench artifacts are comparable across engines without perturbing
    the bit-identity contract.
    """

    params: dict[str, Any]
    ok: bool
    violations: int
    measurements: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    def row(self, *keys: str) -> list[Any]:
        merged = {**self.params, **self.measurements, **self.provenance,
                  "ok": self.ok, "violations": self.violations}
        return [merged.get(k) for k in keys]

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready record (bench artifacts, aggregation)."""
        return {
            **self.params,
            "ok": self.ok,
            "violations": self.violations,
            **self.measurements,
            **self.provenance,
        }


def _count_cs_grants(trace: Trace, tag: str) -> int:
    """Arbitration rounds spent: critical-section entries of ``tag``.

    Reads the CS_ENTER kind index — no full-trace scan, no event views.
    """
    return sum(
        1 for row in trace.kind_rows(EventKind.CS_ENTER)
        if trace.data_at(row).get("tag") == tag
    )


def _drive(
    spec: TrialSpec,
    label: str,
    protocol: dict[str, Any],
    default_horizon: int,
    requests_per_process: int,
    *,
    require_completion: bool = True,
    **driver: Any,
) -> tuple[TrialSpec, EngineRun]:
    """The body every trial shares: fill in the experiment part of
    ``spec`` (protocol, driver, horizon default), execute it, and insist
    on completion.  Returns the spec that ran and its outcome."""
    tag = protocol["kind"]
    spec = replace(
        spec,
        protocol=protocol,
        driver=dict(tag=tag, requests_per_process=requests_per_process,
                    **driver),
        horizon=default_horizon if spec.horizon is None else spec.horizon,
    )
    run = execute(spec)
    if require_completion and not run.completed:
        raise HorizonExceeded(
            f"{label} trial did not finish",
            horizon=spec.horizon,
            served=len(run.completions),
            requested=requests_per_process * len(run.pids),
            # Only ME traces carry critical-section entries.
            rounds=_count_cs_grants(run.trace, tag) or None,
            window=run.window,
        )
    return spec, run


def _result(
    spec: TrialSpec,
    run: EngineRun,
    ok: bool,
    violations: list,
    measurements: dict[str, Any],
    **params: Any,
) -> TrialResult:
    return TrialResult(
        params={"n": len(run.pids), "seed": spec.seed, "loss": spec.loss,
                **params, "topology": run.topology.name,
                "engine": spec.engine},
        ok=ok,
        violations=len(violations),
        measurements=measurements,
        provenance=run.provenance(),
    )


def run_pif_trial(
    spec: TrialSpec,
    *,
    requests_per_process: int = 2,
    max_state: int | None = None,
) -> TrialResult:
    """One PIF trial (E3): all processes broadcast; Specification 1 checked.

    ``max_state`` is the top of the handshake flag domain (default
    ``spec.capacity + 3``, the paper's bound for capacity-c channels).
    """
    if max_state is None:
        max_state = spec.capacity + 3
    spec, run = _drive(
        spec, "PIF", {"kind": "pif", "max_state": max_state}, PIF_HORIZON,
        requests_per_process, payload_fmt="msg-{pid}-{k}",
    )
    verdict = check_pif(
        run.trace, "pif", run.pids, final_requests=run.finals,
        **scope("pif", run.topology),
    )
    waves = [w for w in extract_waves(run.trace, "pif") if w.decided]
    durations = [w.duration for w in waves if w.duration is not None]
    return _result(
        spec, run, verdict.ok, verdict.violations,
        {
            "waves": len(waves),
            "messages": run.stats.sent,
            "msg_per_wave": round(run.stats.sent / max(1, len(waves)), 1),
            "wave_p50": summarize(durations).p50 if durations else 0,
            "wave_p95": summarize(durations).p95 if durations else 0,
            "final_time": run.final_time,
        },
        capacity=spec.capacity,
    )


def run_idl_trial(
    spec: TrialSpec,
    *,
    requests_per_process: int = 2,
    idents: dict[int, int] | None = None,
) -> TrialResult:
    """One IDL trial (E4): Specification 2 checked against ground truth."""
    spec, run = _drive(
        spec, "IDL", {"kind": "idl", "idents": idents}, IDL_HORIZON,
        requests_per_process,
    )
    truth = {p: (idents[p] if idents else p) for p in run.pids}
    verdict = check_idl(
        run.trace, "idl", truth, final_requests=run.finals,
        **scope("idl", run.topology),
    )
    latencies = run.latencies()
    return _result(
        spec, run, verdict.ok, verdict.violations,
        {
            "computations": verdict.info.get("computations", 0),
            "messages": run.stats.sent,
            "latency_p50": summarize(latencies).p50 if latencies else 0,
            "final_time": run.final_time,
        },
    )


def run_mutex_trial(
    spec: TrialSpec,
    *,
    requests_per_process: int = 2,
    cs_duration: int = 3,
    use_paper_modulus: bool = False,
    require_completion: bool = True,
) -> TrialResult:
    """One ME trial (E5): Specification 3 checked over the full trace.

    On a non-complete topology the Correctness check runs per leader
    cluster (the generalized guarantee — see :mod:`repro.core.mutex`).

    ``spec.round_budget`` bounds convergence cost: the trial aborts with
    :class:`~repro.errors.HorizonExceeded` once more than that many CS
    grants happened without serving every request.  A completing trial
    uses about ``(requests_per_process + 1) * n`` grants (measured across
    topologies — see docs/engine.md), so small multiples of that are
    generous budgets; the guard exists because per-grant *time* grows
    steeply with ring size, making the plain horizon an expensive way to
    detect impractical configurations.
    """
    spec, run = _drive(
        spec, "ME",
        {"kind": "me", "cs_duration": cs_duration,
         "use_paper_modulus": use_paper_modulus},
        MUTEX_HORIZON, requests_per_process,
        require_completion=require_completion,
    )
    verdict = check_mutex(
        run.trace, "me", horizon=run.final_time,
        require_all_served=run.completed, **scope("me", run.topology),
    )
    latencies = run.latencies()
    return _result(
        spec, run,
        verdict.ok and (run.completed or not require_completion),
        verdict.violations,
        {
            "served": len(run.completions),
            "requested": requests_per_process * len(run.pids),
            "completed": run.completed,
            "cs_count": verdict.info.get("cs_count", 0),
            "messages": run.stats.sent,
            "latency_p50": summarize(latencies).p50 if latencies else 0,
            "latency_p95": summarize(latencies).p95 if latencies else 0,
            "final_time": run.final_time,
        },
    )


#: Trial name → wrapper: the one table behind the CLI's trial
#: subcommands and the topology matrix's ``protocol`` axis.
TRIALS = {
    "pif": run_pif_trial,
    "idl": run_idl_trial,
    "mutex": run_mutex_trial,
}


def _sweep(trial, ns, losses, seeds, kwargs) -> list[TrialResult]:
    return [
        trial(TrialSpec(n=n, seed=seed, loss=loss), **kwargs)
        for n in ns
        for loss in losses
        for seed in seeds
    ]


def sweep_pif(
    ns: list[int], losses: list[float], seeds: list[int], **kwargs: Any
) -> list[TrialResult]:
    """E3 sweep: PIF across system sizes, loss rates and scrambles."""
    return _sweep(run_pif_trial, ns, losses, seeds, kwargs)


def sweep_mutex(
    ns: list[int], losses: list[float], seeds: list[int], **kwargs: Any
) -> list[TrialResult]:
    """E5 sweep: ME across system sizes, loss rates and scrambles."""
    return _sweep(run_mutex_trial, ns, losses, seeds, kwargs)


def pif_scaling_row(
    n: int,
    *,
    seeds: list[int],
    loss: float = 0.0,
    topology: Topology | str | None = None,
) -> dict[str, Any]:
    """E7: message/latency cost of one wave as a function of n.

    One requesting initiator; the cost of a complete wave is Θ(deg) messages
    per resend round and a constant number (max_state) of round trips —
    Θ(n) per round on the paper's complete graph.
    """
    from repro.core.pif import PifLayer
    from repro.sim.runtime import Simulator
    from repro.types import RequestState

    msg_counts: list[int] = []
    per_peer: list[float] = []
    durations: list[int] = []
    name = "complete"
    for seed in seeds:
        top = _resolve_topology(n, topology, seed)
        sim = Simulator(
            n if top is None else None,
            lambda h: h.register(PifLayer("pif")),
            topology=top,
            seed=seed,
        )
        initiator = sim.pids[0]
        name = sim.topology.name
        layer = sim.layer(initiator, "pif")
        layer.request_broadcast("scale")
        done = sim.run(500_000, until=lambda s: layer.request is RequestState.DONE)
        if not done:
            raise SimulationError(f"scaling wave (n={n}, seed={seed}) never decided")
        waves = [w for w in extract_waves(sim.trace, "pif") if w.decided]
        msg_counts.append(sim.stats.sent)
        # Per-seed ratio: a seeded random family (gnp) gives each seed a
        # different graph, so the initiator's degree varies per trial.
        per_peer.append(sim.stats.sent / sim.network.degree(initiator))
        durations.append(waves[0].duration or 0)
    return {
        "n": n,
        "topology": name,
        "messages_mean": round(sum(msg_counts) / len(msg_counts), 1),
        "messages_per_peer": round(sum(per_peer) / len(per_peer), 1),
        "duration_mean": round(sum(durations) / len(durations), 1),
    }
