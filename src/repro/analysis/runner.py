"""Experiment runners: the one trial body, plus parameter sweeps.

:func:`run_trial` takes a :class:`~repro.engine.TrialSpec` that names at
least its ``protocol`` kind, lets that kind's row of
:data:`repro.core.protocols.PROTOCOLS` fill in what the spec leaves open
(driver config, horizon default), hands it to the
:func:`repro.engine.execute` pipeline (spec → registry → backend → trace
→ provenance), judges the returned trace against the kind's
specification — once, in :data:`_JUDGES`, the trial's only verdict on
every engine — and returns a flat :class:`TrialResult` ready for
table rendering (experiments E3, E4, E5, E7 of DESIGN.md).  A variation
of a trial is a :func:`dataclasses.replace` of its spec; a recorded spec
replays as ``run_trial(TrialSpec.from_provenance(record))``.  The
``run_*_trial`` functions are keyword spellings of the same call.

The ``engine`` axis is answered by the backend registry
(:mod:`repro.engine.registry`): ``serial``, ``sharded``, ``async`` and
``cluster`` are built in, and all execute the *same* trial shape —
build, scramble, drive requests until served, drain
:data:`~repro.engine.DRAIN_TICKS`.  Deterministic configurations
(``serial``, ``sharded``, ``cluster``, ``async``+``loopback``) produce
bit-identical traces for the same seed, so every specification check
and measurement below is engine-agnostic; a best-effort configuration
(the paced ``tcp``/``udp`` transports) produces a trace of its own,
judged by the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.protocols import PROTOCOLS, ProtocolKind, protocol_of
from repro.engine import DRAIN_TICKS, EngineRun, TrialSpec, execute
from repro.engine.base import resolve_topology as _resolve_topology
from repro.errors import HorizonExceeded, SimulationError
from repro.sim.topology import Topology
from repro.sim.trace import EventKind, Trace
from repro.spec.idl_spec import check_idl
from repro.spec.mutex_spec import check_mutex
from repro.spec.pif_spec import check_pif
from repro.spec.waves import extract_waves
from repro.analysis.metrics import summarize

__all__ = [
    "TrialResult",
    "EngineRun",
    "DRAIN_TICKS",
    "run_trial",
    "run_pif_trial",
    "run_idl_trial",
    "run_mutex_trial",
    "sweep",
    "pif_scaling_row",
]


@dataclass
class TrialResult:
    """Outcome of one trial: verdict plus measurements.

    ``measurements`` holds trace-derived quantities only — identical
    across engines for the same seed, which is what the equivalence gates
    compare.  Run provenance (which engine/transport executed the trial,
    its wall-clock cost) lives in ``provenance`` so bench artifacts are
    comparable across engines without perturbing the bit-identity
    contract.
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


def _judge_pif(row: ProtocolKind, spec: TrialSpec, run: EngineRun):
    """Specification 1, and the decided waves' cost: one automaton pass,
    whose waves are read off the verdict."""
    verdict = check_pif(
        run.trace, row.kind, run.pids, final_requests=run.finals,
        **row.scope(run.topology),
    )
    waves = [w for w in extract_waves(verdict) if w.decided]
    durations = [w.duration for w in waves if w.duration is not None]
    return verdict, {
        "waves": len(waves),
        "msg_per_wave": round(run.stats.sent / max(1, len(waves)), 1),
        "wave_p50": summarize(durations).p50 if durations else 0,
        "wave_p95": summarize(durations).p95 if durations else 0,
    }


def _judge_idl(row: ProtocolKind, spec: TrialSpec, run: EngineRun):
    """Specification 2 against the ground-truth identities."""
    idents = spec.protocol.get("idents")
    truth = {p: (idents[p] if idents else p) for p in run.pids}
    verdict = check_idl(
        run.trace, row.kind, truth, final_requests=run.finals,
        **row.scope(run.topology),
    )
    latencies = run.latencies()
    return verdict, {
        "computations": verdict.info.get("computations", 0),
        "latency_p50": summarize(latencies).p50 if latencies else 0,
    }


def _judge_me(row: ProtocolKind, spec: TrialSpec, run: EngineRun):
    """Specification 3 over the full trace; on a non-complete topology
    Correctness is per leader cluster (see :mod:`repro.core.mutex`)."""
    verdict = check_mutex(
        run.trace, row.kind, horizon=run.final_time,
        require_all_served=run.completed, **row.scope(run.topology),
    )
    latencies = run.latencies()
    return verdict, {
        "served": len(run.completions),
        "requested": spec.driver["requests_per_process"] * len(run.pids),
        "completed": run.completed,
        "cs_count": verdict.info.get("cs_count", 0),
        "latency_p50": summarize(latencies).p50 if latencies else 0,
        "latency_p95": summarize(latencies).p95 if latencies else 0,
    }


#: The per-kind half of a trial, ``(row, spec, run) -> (verdict,
#: measurements)``; the integrity gate holds its keys to PROTOCOLS'.
_JUDGES = {"pif": _judge_pif, "idl": _judge_idl, "me": _judge_me}


def run_trial(
    spec: TrialSpec, *, require_completion: bool = True
) -> TrialResult:
    """One trial of ``spec.protocol["kind"]``: execute, judge, measure.

    ``spec.round_budget`` bounds an ME trial's convergence cost: it aborts
    with :class:`~repro.errors.HorizonExceeded` once more than that many
    CS grants happened without serving every request.  A completing trial
    uses about ``(requests_per_process + 1) * n`` grants (measured across
    topologies — see docs/engine.md), so small multiples of that are
    generous budgets; the guard exists because per-grant *time* grows
    steeply with ring size, making the plain horizon an expensive way to
    detect impractical configurations.
    """
    row = protocol_of(spec.protocol)
    spec = row.describe(spec)
    run = execute(spec)
    if require_completion and not run.completed:
        raise HorizonExceeded(
            f"{row.kind.upper()} trial did not finish",
            horizon=spec.horizon,
            served=len(run.completions),
            requested=spec.driver["requests_per_process"] * len(run.pids),
            # Only ME traces carry critical-section entries.
            rounds=_count_cs_grants(run.trace, row.kind) or None,
            window=run.window,
        )
    verdict, measurements = _JUDGES[row.kind](row, spec, run)
    return TrialResult(
        params={"n": len(run.pids), "seed": spec.seed, "loss": spec.loss,
                "capacity": spec.capacity, "topology": run.topology.name,
                "engine": spec.engine},
        ok=verdict.ok and (run.completed or not require_completion),
        violations=len(verdict.violations),
        measurements={**measurements, "messages": run.stats.sent,
                      "final_time": run.final_time},
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
    return run_trial(PROTOCOLS["pif"].describe(
        spec, requests_per_process=requests_per_process, max_state=max_state))


def run_idl_trial(
    spec: TrialSpec,
    *,
    requests_per_process: int = 2,
    idents: dict[int, int] | None = None,
) -> TrialResult:
    """One IDL trial (E4): Specification 2 checked against ground truth."""
    return run_trial(PROTOCOLS["idl"].describe(
        spec, requests_per_process=requests_per_process, idents=idents))


def run_mutex_trial(
    spec: TrialSpec,
    *,
    requests_per_process: int = 2,
    cs_duration: int = 3,
    use_paper_modulus: bool = False,
    require_completion: bool = True,
) -> TrialResult:
    """One ME trial (E5): Specification 3 checked over the full trace."""
    return run_trial(
        PROTOCOLS["me"].describe(
            spec, requests_per_process=requests_per_process,
            cs_duration=cs_duration, use_paper_modulus=use_paper_modulus),
        require_completion=require_completion)


def sweep(
    kind: str, ns: list[int], losses: list[float], seeds: list[int],
    **keywords: Any,
) -> list[TrialResult]:
    """E3/E5 sweeps: ``kind`` trials across system sizes, loss rates and
    scrambles (``keywords`` as for the row's ``describe``)."""
    row = PROTOCOLS[kind]
    return [
        run_trial(row.describe(TrialSpec(n=n, seed=seed, loss=loss), **keywords))
        for n in ns
        for loss in losses
        for seed in seeds
    ]


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
