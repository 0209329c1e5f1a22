"""PIF-based applications: the protocols the paper says PIF enables."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.applications.aggregation import AGG, AggregationLayer
    from repro.applications.leader_election import LeaderElectionLayer
    from repro.applications.phase_sync import BAR, BarrierLayer
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
    "BAR",
    "BarrierLayer",
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
    "phase_sync": ("BAR", "BarrierLayer"),
    "reset": ("RESET", "ResetLayer"),
    "snapshot": ("SNAP", "SnapshotLayer"),
    "termination_detection": (
        "PROBE", "ObservedComputation", "TerminationDetectorLayer",
    ),
})
