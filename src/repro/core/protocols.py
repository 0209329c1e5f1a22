"""The one protocol table: what a PIF / IDL / ME trial *is*.

A :class:`~repro.engine.TrialSpec` describes its protocol as a plain
``{"kind": ..., **params}`` dict and its request payloads as a format
string, so every spec is picklable and JSON-codable.  :data:`PROTOCOLS`
holds one :class:`ProtocolKind` row per ``kind`` — which *is* the layer
tag, the driver tag and the automaton's tag — pairing the algorithm with
its one specification, as the paper does.  Whatever a row refers to is
imported when it is called: a cluster worker builds hosts through
:func:`build_protocol` without loading :mod:`repro.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.spec import TrialSpec
    from repro.sim.runtime import BuildFn
    from repro.sim.topology import Topology

__all__ = [
    "PROTOCOLS",
    "ProtocolKind",
    "build_protocol",
    "protocol_named",
    "protocol_of",
]


@dataclass(frozen=True)
class ProtocolKind:
    """One protocol, its experiment defaults and its specification."""

    kind: str
    #: CLI subcommand (the user-facing name) and the trial table's title.
    command: str
    title: str
    #: Layer builder; its keyword-only parameters are the protocol's.
    build: Callable[..., BuildFn]
    #: Horizon applied when the spec names none.
    horizon: int
    #: The specification: the keywords scoping it (``check_*``, automaton)
    #: to a topology, and its automaton from ``(topology, **params)``.
    scope: Callable[[Topology], dict[str, Any]]
    automaton: Callable[..., Any]
    #: Driver config beyond ``tag`` / ``requests_per_process``, and the
    #: protocol parameters whose default follows from the spec.
    driver: Mapping[str, Any] = field(default_factory=dict)
    derived: Callable[[TrialSpec], dict[str, Any]] = lambda spec: {}

    def describe(
        self, spec: TrialSpec, *, requests_per_process: int | None = None,
        **params: Any,
    ) -> TrialSpec:
        """``spec`` as a trial of this kind: what it leaves open — driver
        config (two requests per process), horizon — is filled in; a
        keyword given here (and not None) overrides the spec's value."""
        driver = {"tag": self.kind, "requests_per_process": 2,
                  **self.driver, **spec.driver}
        if requests_per_process is not None:
            driver["requests_per_process"] = requests_per_process
        return replace(
            spec, driver=driver,
            protocol={"kind": self.kind, **self.derived(spec),
                      **dict(spec.protocol or {}, kind=self.kind),
                      **{k: v for k, v in params.items() if v is not None}},
            horizon=self.horizon if spec.horizon is None else spec.horizon,
        )


# Scoping: none on the complete graph (the paper's global reading).


def _neighbors(topology: Topology) -> dict[str, Any]:
    """A wave reaches the initiator's neighbourhood."""
    if topology.is_complete:
        return {}
    return {"neighbors": {p: topology.neighbors(p) for p in topology.pids}}


def _clusters(topology: Topology) -> dict[str, Any]:
    """ME arbitrates per leader cluster."""
    if topology.is_complete:
        return {}
    from repro.sim.topology import arbitration_clusters

    return {"clusters": list(arbitration_clusters(topology).values())}


def _build_pif(*, max_state: int = 4) -> BuildFn:
    from repro.core.pif import PifLayer

    def build(host) -> None:
        host.register(PifLayer("pif", max_state=max_state))

    return build


def _pif_automaton(topology, **_params):
    from repro.spec.pif_spec import PifAutomaton

    return PifAutomaton("pif", topology.pids, **_neighbors(topology))


def _build_idl(*, idents: dict[int, int] | None = None) -> BuildFn:
    from repro.core.idl import IdlLayer

    def build(host) -> None:
        ident = idents[host.pid] if idents else None
        host.register(IdlLayer("idl", ident=ident))

    return build


def _idl_automaton(topology, idents=None, **_params):
    from repro.spec.idl_spec import IdlAutomaton

    truth = idents or {p: p for p in topology.pids}
    return IdlAutomaton("idl", truth, **_neighbors(topology))


def _build_me(
    *, cs_duration: int = 3, use_paper_modulus: bool = False
) -> BuildFn:
    from repro.core.mutex import MutexLayer

    def build(host) -> None:
        host.register(
            MutexLayer(
                "me", cs_duration=cs_duration, use_paper_modulus=use_paper_modulus
            )
        )

    return build


def _me_automaton(topology, **_params):
    from repro.spec.mutex_spec import MutexAutomaton

    return MutexAutomaton("me", **_clusters(topology))


#: Every protocol the trials know, keyed by the spec's ``kind``.  Adding
#: one is a row here plus its judge in :mod:`repro.analysis.runner`.
PROTOCOLS: dict[str, ProtocolKind] = {
    row.kind: row
    for row in (
        ProtocolKind(
            kind="pif", command="pif", title="E3 — PIF trials",
            build=_build_pif, horizon=2_000_000,
            scope=_neighbors, automaton=_pif_automaton,
            driver={"payload_fmt": "msg-{pid}-{k}"},
            # The paper's flag-domain bound for capacity-c channels.
            derived=lambda spec: {"max_state": spec.capacity + 3},
        ),
        ProtocolKind(
            kind="idl", command="idl", title="E4 — IDL trials",
            build=_build_idl, horizon=2_000_000,
            scope=_neighbors, automaton=_idl_automaton,
        ),
        ProtocolKind(
            # The larger horizon: convergence on rings.
            kind="me", command="mutex", title="E5 — ME trials",
            build=_build_me, horizon=6_000_000,
            scope=_clusters, automaton=_me_automaton,
        ),
    )
}


def protocol_of(protocol: Mapping[str, Any] | None) -> ProtocolKind:
    """The row of a spec's protocol dict, its parameters checked against
    the ones the row's builder accepts."""
    protocol = protocol or {}
    row = PROTOCOLS.get(protocol.get("kind"))
    if row is None:
        raise SpecError(
            f"unknown protocol kind {protocol.get('kind')!r}; expected one "
            f"of {sorted(PROTOCOLS)}", field="protocol")
    accepted = row.build.__kwdefaults__
    unknown = sorted(protocol.keys() - accepted.keys() - {"kind"})
    if unknown:
        raise SpecError(
            f"protocol {row.kind!r} takes no parameter {unknown}; it "
            f"accepts {sorted(accepted)}", field="protocol")
    return row


def protocol_named(name: str) -> ProtocolKind:
    """The row a user names, by ``kind`` or by ``command``."""
    for row in PROTOCOLS.values():
        if name == row.command:
            return row
    return protocol_of({"kind": name})


def build_protocol(protocol: Mapping[str, Any]) -> BuildFn:
    """Turn a protocol spec into the per-host build function."""
    row = protocol_of(protocol)
    return row.build(**{k: v for k, v in protocol.items() if k != "kind"})

