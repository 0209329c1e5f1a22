"""The declarative trial description: :class:`TrialSpec` and its codecs.

A :class:`TrialSpec` is the only way to describe a trial: the universal
axes (topology/seed/loss/capacity/latency/scramble/horizon), the
protocol as a ``{"kind": ..., **params}`` dict
(:data:`repro.core.protocols.PROTOCOLS`), the request-driver config, and
one small options record per engine family — :class:`ShardingOpts`,
:class:`TransportOpts`, :class:`ClusterOpts`, :class:`ChaosOpts`,
:class:`ObsOpts`.  Backends declare which sections they understand
(:meth:`repro.engine.base.EngineBackend.capabilities`); a populated
section a backend does not understand is one uniform
:class:`~repro.errors.SpecError`.

An axis is declared once, as a dataclass field; the codecs walk the
fields:

* :meth:`TrialSpec.from_cli_args` — build the axis part of a spec from an
  argparse namespace (any subset of the CLI's engine/topology flags);
* :meth:`TrialSpec.as_provenance` / :meth:`TrialSpec.from_provenance` —
  a JSON-ready record and its inverse, lossless: the topology is a spec
  string that names the whole graph (family, graph seed, edge weights;
  :func:`~repro.sim.topology.topology_from_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.errors import SpecError
from repro.sim.determinism import SEMANTICS_EPOCH
from repro.sim.topology import latency_spec

if TYPE_CHECKING:  # pragma: no cover - a spec with no plan never loads it
    from repro.chaos.plan import FaultPlan

__all__ = [
    "SPEC_VERSION",
    "ShardingOpts",
    "TransportOpts",
    "ClusterOpts",
    "ChaosOpts",
    "ObsOpts",
    "TrialSpec",
    "resolve_fault_plan",
]

#: Bump on any incompatible change to the :meth:`TrialSpec.as_provenance`
#: record layout.
SPEC_VERSION = 1


@dataclass(frozen=True)
class ShardingOpts:
    """``engine=sharded`` axes: worker count and sync window (ticks)."""

    shards: int | None = None
    window: int | None = None


@dataclass(frozen=True)
class TransportOpts:
    """``engine=async`` axes: channel medium and wall-clock tick length."""

    transport: str = "loopback"
    tick: float | None = None


@dataclass(frozen=True)
class ClusterOpts:
    """``engine=cluster`` axes: worker-interpreter count, sync mode
    (``None`` or ``"windowed"``, the runtime's one protocol; recorded
    specs name it), and the rendezvous listen address for hand-launched
    workers."""

    hosts: int | None = None
    sync: str | None = None
    listen: str | None = None


@dataclass(frozen=True)
class ChaosOpts:
    """Fault injection (:mod:`repro.chaos`): a parsed :class:`FaultPlan`.

    Accepts the DSL text directly (``ChaosOpts(plan="drop ship from 1")``)
    and parses it at construction, so a spec never carries raw plan text.
    """

    plan: FaultPlan | None = field(
        default=None, metadata={
            "record_key": "fault_plan",
            "encode": lambda plan: None if plan is None else plan.source,
        })

    def __post_init__(self) -> None:
        if isinstance(self.plan, str):
            from repro.chaos.plan import FaultPlan

            object.__setattr__(self, "plan", FaultPlan.parse(self.plan))


@dataclass(frozen=True)
class ObsOpts:
    """Observability (:mod:`repro.obs`): output paths for the metrics
    snapshot and the Chrome-trace timeline (None = instrument off)."""

    metrics: str | None = None
    timeline: str | None = None

    @property
    def active(self) -> bool:
        return self.metrics is not None or self.timeline is not None


@dataclass(frozen=True)
class TrialSpec:
    """One driven trial, fully described.

    ``protocol`` names the layers every process host registers, as a
    ``{"kind": ..., **params}`` dict resolved through
    :func:`repro.core.protocols.build_protocol` on every engine.
    ``driver`` and ``horizon`` may be left unset (and ``protocol`` by
    axis-only specs, e.g. from the CLI): the protocol's row of
    :data:`repro.core.protocols.PROTOCOLS` fills them in ``describe``, and
    :func:`repro.engine.pipeline.execute` requires all three.
    """

    n: int = 0
    protocol: dict[str, Any] | None = None
    topology: str | None = None
    seed: int = 0
    loss: float = 0.0
    capacity: int = 1
    latency: tuple[int, int] = (1, 3)
    scramble: bool = True
    driver: dict[str, Any] = field(default_factory=dict)
    horizon: int | None = None
    round_budget: int | None = None
    engine: str = "serial"
    sharding: ShardingOpts = ShardingOpts()
    transport: TransportOpts = TransportOpts()
    cluster: ClusterOpts = ClusterOpts()
    chaos: ChaosOpts = ChaosOpts()
    obs: ObsOpts = ObsOpts()

    def __post_init__(self) -> None:
        # Normalize sequence spellings so == and the codecs are stable.
        if not isinstance(self.latency, tuple):
            object.__setattr__(self, "latency", tuple(self.latency))
        if not isinstance(self.chaos, ChaosOpts):  # a FaultPlan or its text
            object.__setattr__(self, "chaos", ChaosOpts(plan=self.chaos))

    # -- structural validation (backend-independent) -------------------

    def validate(self) -> None:
        """Check internal consistency; engine fit is checked separately
        against the resolved backend's capability declaration."""
        if not isinstance(self.n, int) or self.n < 1:
            raise SpecError(f"n must be a positive int, got {self.n!r}",
                            field="n")
        if not 0.0 <= self.loss <= 1.0:
            raise SpecError(f"loss must be in [0, 1], got {self.loss!r}",
                            field="loss")
        if self.capacity < 1:
            raise SpecError(
                f"capacity must be >= 1, got {self.capacity!r}",
                field="capacity")
        if (
            len(self.latency) != 2
            or not all(isinstance(b, int) for b in self.latency)
            or not 1 <= self.latency[0] <= self.latency[1]
        ):
            raise SpecError(
                f"latency must be an int pair (lo, hi) with 1 <= lo <= hi, "
                f"got {self.latency!r}", field="latency")
        if self.horizon is not None and self.horizon < 1:
            raise SpecError(
                f"horizon must be >= 1 ticks, got {self.horizon!r}",
                field="horizon")
        if self.round_budget is not None and self.round_budget < 0:
            raise SpecError(
                f"round_budget must be >= 0, got {self.round_budget!r}",
                field="round_budget")
        if self.driver and "tag" not in self.driver:
            raise SpecError(
                "driver config names no 'tag' (which layer serves the "
                "requests)", field="driver")
        if self.cluster.sync not in (None, "windowed"):
            raise SpecError(
                f"sync must be None or 'windowed', got {self.cluster.sync!r}",
                field="sync")
        if self.topology is not None and not isinstance(self.topology, str):
            raise SpecError(
                f"topology must be a spec string such as 'ring;1-2=16:32', "
                f"got a {type(self.topology).__name__}", field="topology")
        if self.transport.tick is not None and self.transport.tick <= 0:
            raise SpecError(
                f"tick must be > 0 seconds, got {self.transport.tick!r}",
                field="tick")

    # -- codecs ---------------------------------------------------------

    def as_provenance(self) -> dict[str, Any]:
        """JSON-ready record of this spec (bench artifacts, obs context,
        the golden-hash corpus): one key per field, one sub-record per
        options section, and the semantics epoch whose draws it names."""
        return {"spec_version": SPEC_VERSION, "epoch": SEMANTICS_EPOCH,
                **_encode(self)}

    @classmethod
    def from_provenance(cls, record: dict[str, Any]) -> "TrialSpec":
        """Rebuild a spec from an :meth:`as_provenance` record (absent
        keys keep the field's default; a key no field is recorded under
        is a :class:`~repro.errors.SpecError` naming it).  A record from
        another semantics epoch is one too (``field="epoch"``): its seed
        names other draws here; a record with no epoch predates the key
        and is epoch 1."""
        version = record.get("spec_version")
        if version != SPEC_VERSION:
            raise SpecError(
                f"provenance record speaks spec_version {version!r}, "
                f"expected {SPEC_VERSION}", field="spec_version")
        epoch = record.get("epoch", 1)
        if epoch != SEMANTICS_EPOCH:
            raise SpecError(
                f"provenance record was recorded under epoch {epoch!r}, "
                f"running {SEMANTICS_EPOCH}", field="epoch")
        return _decode(cls, {k: v for k, v in record.items()
                             if k not in ("spec_version", "epoch")},
                       "provenance record")

    @classmethod
    def from_cli_args(
        cls, args: Any, *, n: int | None = None, seed: int | None = None
    ) -> "TrialSpec":
        """Build the axis part of a spec from an argparse namespace.

        Reads whichever of the CLI's engine/topology flags the namespace
        carries (``--engine``, ``--shards``, ``--transport``, ``--hosts``,
        ``--fault-plan``, ``--metrics``, ``--wan``, ``--latency-map``, …)
        and leaves the experiment part — ``protocol``/``driver``/the
        ``horizon`` default — to the protocol's ``describe``.
        ``seed`` defaults to the first of ``--seeds`` (or ``--seed``);
        multi-seed commands :func:`dataclasses.replace` the seed per
        trial.
        """
        if n is None:
            n = getattr(args, "n", None)
            if n is None:
                raise SpecError(
                    "from_cli_args needs a system size: pass n= or parse "
                    "a command with --n", field="n")
        if seed is None:
            seeds = getattr(args, "seeds", None)
            seed = seeds[0] if seeds else getattr(args, "seed", 0)
        return cls(
            n=n,
            seed=seed,
            loss=getattr(args, "loss", 0.0),
            topology=_topology_from_args(args),
            latency=tuple(getattr(args, "latency", (1, 3))),
            horizon=getattr(args, "horizon", None),
            round_budget=getattr(args, "round_budget", None),
            engine=getattr(args, "engine", "serial"),
            sharding=ShardingOpts(shards=getattr(args, "shards", None),
                                  window=getattr(args, "window", None)),
            transport=TransportOpts(
                transport=getattr(args, "transport", "loopback"),
                tick=getattr(args, "tick", None)),
            cluster=ClusterOpts(
                hosts=getattr(args, "hosts", None),
                listen=getattr(args, "cluster_listen", None)),
            chaos=ChaosOpts(
                plan=resolve_fault_plan(getattr(args, "fault_plan", None))),
            obs=ObsOpts(metrics=getattr(args, "metrics", None),
                        timeline=getattr(args, "timeline", None)),
        )

    def with_obs(self, metrics: str | None, timeline: str | None) -> "TrialSpec":
        """Copy with different obs paths (per-seed / per-cell suffixing)."""
        return replace(self, obs=ObsOpts(metrics=metrics, timeline=timeline))


# -- the provenance codec: one walk over the dataclass fields -----------


def _record_key(f) -> str:
    return f.metadata.get("record_key", f.name)


def _encode(value: Any) -> Any:
    if is_dataclass(value):
        return {_record_key(f):
                f.metadata.get("encode", _encode)(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def _decode(cls: type, record: dict[str, Any], where: str) -> Any:
    unknown = sorted(set(record) - {_record_key(f) for f in fields(cls)})
    if unknown:
        raise SpecError(
            f"{where} carries unknown keys {unknown}", field=unknown[0])
    kwargs = {}
    for f in fields(cls):
        key = _record_key(f)
        if key not in record:
            continue
        value = record[key]
        if is_dataclass(f.default):  # an options section
            value = _decode(type(f.default), value or {},
                            f"provenance section {key!r}")
        elif f.name == "protocol" and value:
            # JSON stringified the keys of pid-keyed parameters (``idents``).
            value = {
                name: {int(pid): v for pid, v in param.items()}
                if isinstance(param, dict) else param
                for name, param in value.items()}
        kwargs[f.name] = value
    return cls(**kwargs)


# -- CLI helpers (shared by from_cli_args and repro.cli) ----------------


def resolve_fault_plan(plan: Any) -> FaultPlan | None:
    """Coerce a fault-plan argument: FaultPlan, DSL text, or ``@FILE``."""
    if not isinstance(plan, str):
        return plan
    from repro.chaos.plan import FaultPlan

    text = plan
    if text.startswith("@"):
        from pathlib import Path

        try:
            text = Path(text[1:]).read_text()
        except OSError as exc:
            raise SpecError(
                f"cannot read fault plan file {plan[1:]!r}: {exc}",
                field="fault_plan") from None
    return FaultPlan.parse(text)


def _topology_from_args(args: Any) -> str | None:
    """The trial topology's spec string from CLI flags: ``--wan`` folded
    in, latency entries (the spec's and ``--latency-map``'s) in canonical
    order, none over ``wan``."""
    spec = getattr(args, "topology", None)
    if getattr(args, "wan", False):
        if spec is not None and not spec.startswith("wan"):
            raise SpecError(
                f"--wan conflicts with --topology {spec!r}; use --topology "
                f"wan:K to pick the cluster count", field="topology")
        spec = spec or "wan"
    base, *entries = (spec or "complete").split(";")
    entries += getattr(args, "latency_map", None) or []
    return latency_spec(base, entries) if entries else spec
