"""PIF-based applications: the collect wave, and termination detection
over it."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.applications.collect import COLLECT, CollectLayer
    from repro.applications.termination_detection import (
        ObservedComputation,
        TerminationDetectorLayer,
    )

__all__ = [
    "COLLECT",
    "CollectLayer",
    "ObservedComputation",
    "TerminationDetectorLayer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "collect": ("COLLECT", "CollectLayer"),
    "termination_detection": ("ObservedComputation", "TerminationDetectorLayer"),
})
