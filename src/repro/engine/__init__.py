"""repro.engine — the declarative trial pipeline.

One :class:`TrialSpec` describes a trial (axes + per-engine option
sections); one :class:`EngineBackend` registry answers ``engine=name``;
one :func:`execute` pipeline runs every backend identically:

    spec → registry → backend.prepare → backend.run → EngineRun
         → run_trial's one spec check → provenance

Adding an engine is a registry entry plus a capability declaration —
see docs/architecture.md for the walkthrough (the UDP transport is the
worked example on the sibling transport registry).
"""

from repro.engine.base import (
    DRAIN_TICKS,
    AXES,
    EngineBackend,
    EngineRun,
    PreparedTrial,
    check_capabilities,
    validate_run_provenance,
)
from repro.engine.pipeline import execute
from repro.engine.registry import (
    backends,
    engine_names,
    register,
    resolve,
    unregister,
)
from repro.engine.spec import (
    SPEC_VERSION,
    ChaosOpts,
    ClusterOpts,
    ObsOpts,
    ShardingOpts,
    TransportOpts,
    TrialSpec,
)

__all__ = [
    "TrialSpec",
    "ShardingOpts",
    "TransportOpts",
    "ClusterOpts",
    "ChaosOpts",
    "ObsOpts",
    "SPEC_VERSION",
    "EngineBackend",
    "EngineRun",
    "PreparedTrial",
    "AXES",
    "DRAIN_TICKS",
    "check_capabilities",
    "validate_run_provenance",
    "execute",
    "register",
    "resolve",
    "unregister",
    "backends",
    "engine_names",
]
