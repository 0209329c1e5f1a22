"""PIF-based applications: the protocols the paper says PIF enables."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.applications.aggregation import AGG, AggregationLayer
    from repro.applications.leader_election import LeaderElectionLayer
    from repro.applications.reset import RESET, ResetLayer
    from repro.applications.snapshot import SNAP, SnapshotLayer
    from repro.applications.termination_detection import (
        PROBE,
        ObservedComputation,
        TerminationDetectorLayer,
    )

__all__ = [
    "AGG",
    "AggregationLayer",
    "LeaderElectionLayer",
    "ObservedComputation",
    "PROBE",
    "RESET",
    "ResetLayer",
    "SNAP",
    "SnapshotLayer",
    "TerminationDetectorLayer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "aggregation": ("AGG", "AggregationLayer"),
    "leader_election": ("LeaderElectionLayer",),
    "reset": ("RESET", "ResetLayer"),
    "snapshot": ("SNAP", "SnapshotLayer"),
    "termination_detection": (
        "PROBE", "ObservedComputation", "TerminationDetectorLayer",
    ),
})
