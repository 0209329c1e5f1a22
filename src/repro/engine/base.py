"""The engine plugin surface: :class:`EngineBackend` and its contracts.

A backend turns a :class:`~repro.engine.spec.TrialSpec` into an
:class:`EngineRun` in three steps the pipeline drives uniformly:

* :meth:`~EngineBackend.prepare` — resolve the topology and the scramble
  seed and construct the engine object (a :class:`PreparedTrial`); written
  once, here — a backend supplies only :meth:`~EngineBackend.engine`;
* :meth:`~EngineBackend.run` — execute the trial shape every engine
  shares (scramble → serve the request driver → drain
  :data:`DRAIN_TICKS`) and return the one outcome type, :class:`EngineRun`;
* :meth:`~EngineBackend.collect_obs` — harvest passive counters into the
  trial's :class:`~repro.obs.recorder.ObsRecorder`.

Fitness is declarative: :meth:`~EngineBackend.capabilities` names the
spec axes the backend understands, and :func:`check_capabilities` turns
any populated-but-undeclared axis into one uniform
:class:`~repro.errors.SpecError` naming the backend and the offending
field — there is no per-engine ``if``/``elif`` anywhere above this line.
"""

from __future__ import annotations

import abc
import contextlib
from dataclasses import dataclass
from typing import Any

from repro.core.requests import CompletedRequest
from repro.errors import SpecError
from repro.sim.channel import BernoulliLoss, NoLoss
from repro.sim.stats import SimStats
from repro.sim.topology import Topology, topology_from_spec
from repro.sim.trace import Trace
from repro.engine.spec import TrialSpec
from repro.types import RequestState

__all__ = [
    "DRAIN_TICKS",
    "SCRAMBLE_XOR",
    "EngineBackend",
    "PreparedTrial",
    "EngineRun",
    "check_capabilities",
    "loss_model",
    "validate_run_provenance",
]

#: Ticks every trial runs past the driver's completion, so residual
#: (never-started) computations drain and — crucially — all engines stop
#: on the same full tick (barrier-synced engines detect completion at a
#: window boundary, which can overshoot the completion tick by up to one
#: window).
DRAIN_TICKS = 200

#: The scramble stream is decorrelated from the protocol streams by
#: deriving its seed as ``seed ^ SCRAMBLE_XOR`` — shared by every engine
#: so scrambled initial configurations are bit-identical across backends.
SCRAMBLE_XOR = 0x5EED


def loss_model(loss: float):
    return BernoulliLoss(loss) if loss > 0 else NoLoss()


@dataclass
class PreparedTrial:
    """A spec resolved against one backend, ready to run."""

    spec: TrialSpec
    #: The resolved topology object (None = complete graph via ``spec.n``).
    topology: Topology | None
    #: Adversary stream seed, or None when the spec skips scrambling.
    scramble_seed: int | None
    #: The trial's recorder, or None when observability is off.
    obs: Any = None
    #: The constructed engine object (backend-specific).
    sim: Any = None

    @property
    def tag(self) -> str:
        """The driver's layer tag (finals/measurements key)."""
        return self.spec.driver["tag"]

    def phase(self, name: str, **args: Any):
        """The recorder's span over one whole phase of the run; a no-op
        context when observability is off."""
        if self.obs is None:
            return contextlib.nullcontext()
        return self.obs.phase(name, **args)


@dataclass
class EngineRun:
    """Engine-agnostic outcome of one driven run (any engine)."""

    trace: Trace
    stats: SimStats
    #: Driver-tag request state per pid at the final horizon.
    finals: dict[int, RequestState]
    completions: list[CompletedRequest]
    completed: bool
    final_time: int
    topology: Topology
    pids: tuple[int, ...]
    #: Run provenance: which backend executed the trial and what it cost.
    engine: str = "serial"
    transport: str | None = None
    wall_clock_s: float = 0.0
    #: Sharded/cluster provenance: the active synchronization window, the
    #: barriers paid and the driver-side sync overhead (None elsewhere).
    window: int | None = None
    barriers: int | None = None
    sync_wall_s: float | None = None
    #: Cluster provenance: worker-interpreter count, per-shard simulation
    #: wall clock and rendezvous round trips (None elsewhere).
    hosts: int | None = None
    worker_wall_s: dict[int, float] | None = None
    registry_round_trips: int | None = None
    #: Chaos provenance (repro.chaos): injected-fault / recovery counters
    #: when a fault plan was active (None on fault-free runs).
    fault_counts: dict[str, int] | None = None
    recoveries: int | None = None
    replayed_rounds: int | None = None

    def latencies(self) -> list[int]:
        return [c.latency for c in self.completions]

    def provenance(self) -> dict[str, Any]:
        """JSON-ready provenance block for bench artifacts."""
        record: dict[str, Any] = {
            "engine": self.engine,
            "transport": self.transport,
            "wall_clock_s": round(self.wall_clock_s, 4),
        }
        if self.window is not None:
            record["window"] = self.window
            record["barriers"] = self.barriers
            record["sync_wall_s"] = round(self.sync_wall_s or 0.0, 4)
        if self.hosts is not None:
            record["hosts"] = self.hosts
            walls = self.worker_wall_s or {}
            record["worker_wall_s"] = {
                shard: round(seconds, 4) for shard, seconds in walls.items()
            }
            #: Load imbalance at a glance: slowest minus fastest shard.
            record["worker_wall_spread_s"] = (
                round(max(walls.values()) - min(walls.values()), 4)
                if walls else 0.0
            )
            record["registry_round_trips"] = self.registry_round_trips
        if self.fault_counts is not None:
            record["fault_counts"] = dict(sorted(self.fault_counts.items()))
            if self.recoveries is not None:
                record["recoveries"] = self.recoveries
                record["replayed_rounds"] = self.replayed_rounds
        return record


class EngineBackend(abc.ABC):
    """One execution engine behind the registry.

    Subclasses set :attr:`name`, declare :meth:`capabilities`, and
    implement :meth:`engine`/:meth:`run`.  :meth:`validate` hosts any
    backend-specific consistency checks the capability table cannot
    express (raise :class:`~repro.errors.SpecError`); :meth:`collect_obs`
    harvests passive counters after the run.
    """

    #: Registry key and the ``engine=`` axis value.
    name: str = ""
    #: One-line description for ``--engine`` help and the docs.
    summary: str = ""

    @abc.abstractmethod
    def capabilities(self) -> frozenset[str]:
        """The spec axes this backend understands (see :data:`AXES`)."""

    def validate(self, spec: TrialSpec) -> None:
        """Backend-specific checks beyond the capability table."""

    @abc.abstractmethod
    def engine(self, spec: TrialSpec, topology: Topology | None) -> Any:
        """Construct the engine object for ``spec`` over the resolved
        ``topology`` (None = the complete graph on ``spec.n``)."""

    def prepare(self, spec: TrialSpec, obs: Any = None) -> PreparedTrial:
        """Resolve the spec and construct the engine object."""
        topology = (None if spec.topology is None  # the complete graph
                    else topology_from_spec(spec.topology, spec.n))
        return PreparedTrial(
            spec=spec, topology=topology,
            scramble_seed=(spec.seed ^ SCRAMBLE_XOR) if spec.scramble else None,
            obs=obs, sim=self.engine(spec, topology),
        )

    @abc.abstractmethod
    def run(self, prepared: PreparedTrial) -> EngineRun:
        """Execute the shared trial shape and return the outcome."""

    def collect_obs(self, prepared: PreparedTrial, run: EngineRun) -> None:
        """Harvest the engine's passive counters into ``prepared.obs``
        (called only when observability is on)."""
        prepared.obs.collect_sim(prepared.sim)


#: The capability axis table: ``(capability, field name, reader)``.
#: ``check_capabilities`` flags any axis whose value is populated while
#: the backend does not declare the capability.
AXES: tuple[tuple[str, str, Any], ...] = (
    ("round_budget", "round_budget", lambda s: s.round_budget),
    ("shards", "shards", lambda s: s.sharding.shards),
    ("window", "window", lambda s: s.sharding.window),
    ("tick", "tick", lambda s: s.transport.tick),
    ("hosts", "hosts", lambda s: s.cluster.hosts),
    ("sync", "sync", lambda s: s.cluster.sync),
    ("cluster_listen", "cluster_listen", lambda s: s.cluster.listen),
    ("fault_plan", "fault_plan", lambda s: s.chaos.plan),
)


def _alternatives(capability: str) -> str:
    """Human list of engines that do declare ``capability``."""
    from repro.engine.registry import backends

    names = sorted(
        name for name, backend in backends().items()
        if capability in backend.capabilities()
    )
    if not names:
        return "<no registered engine>"
    return " or ".join(repr(name) for name in names)


def check_capabilities(spec: TrialSpec, backend: EngineBackend) -> None:
    """One uniform error for every unsupported-axis combination.

    Raises :class:`~repro.errors.SpecError` naming the backend and the
    offending field when the spec populates an axis the backend does not
    declare — ``--fault-plan`` on serial, ``--window`` on async,
    ``--hosts`` on sharded, a non-loopback transport off the async
    engine, all through this single gate.
    """
    caps = backend.capabilities()
    for capability, field_name, read in AXES:
        value = read(spec)
        if value is None or capability in caps:
            continue
        raise SpecError(
            f"{field_name}={value!r} is not supported by the "
            f"{backend.name!r} backend: {field_name} requires "
            f"engine={_alternatives(capability)}",
            backend=backend.name, field=field_name,
        )
    transport = spec.transport.transport
    if transport != "loopback" and f"transport:{transport}" not in caps:
        from repro.net.transport import resolve_transport

        resolve_transport(transport)  # unknown name → its own SpecError
        raise SpecError(
            f"transport={transport!r} is not supported by the "
            f"{backend.name!r} backend: transport requires "
            f"engine={_alternatives(f'transport:{transport}')}",
            backend=backend.name, field="transport",
        )


# -- provenance schema ---------------------------------------------------

#: The shared shape of :meth:`EngineRun.provenance` records: required
#: keys with their types, then conditional sections keyed by the field
#: that switches them on.
_PROVENANCE_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "engine": str,
    "transport": (str, type(None)),
    "wall_clock_s": (int, float),
}
_PROVENANCE_SECTIONS: dict[str, dict[str, type | tuple[type, ...]]] = {
    "window": {"window": int, "barriers": int, "sync_wall_s": (int, float)},
    "hosts": {"hosts": int, "worker_wall_s": dict,
              "worker_wall_spread_s": (int, float),
              "registry_round_trips": int},
    "fault_counts": {"fault_counts": dict},
}


def validate_run_provenance(record: dict[str, Any]) -> None:
    """Check one :meth:`EngineRun.provenance` record against the shared
    schema every backend's provenance must fit.  Raises
    :class:`~repro.errors.SpecError` naming the offending key."""
    for key, types in _PROVENANCE_REQUIRED.items():
        if key not in record:
            raise SpecError(f"provenance record misses {key!r}", field=key)
        if not isinstance(record[key], types):
            raise SpecError(
                f"provenance {key!r} has type "
                f"{type(record[key]).__name__}, expected {types}", field=key)
    known = set(_PROVENANCE_REQUIRED)
    for switch, section in _PROVENANCE_SECTIONS.items():
        known |= set(section)
        if switch not in record:
            continue
        for key, types in section.items():
            if key not in record:
                raise SpecError(
                    f"provenance record carries {switch!r} but misses its "
                    f"section key {key!r}", field=key)
            if not isinstance(record[key], types):
                raise SpecError(
                    f"provenance {key!r} has type "
                    f"{type(record[key]).__name__}, expected {types}",
                    field=key)
    known |= {"recoveries", "replayed_rounds"}
    unknown = set(record) - known
    if unknown:
        raise SpecError(
            f"provenance record carries unknown keys {sorted(unknown)}",
            field=sorted(unknown)[0])
