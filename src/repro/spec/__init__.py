"""Specification checkers (Specifications 1-3, Definition 5)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.spec.base import SpecVerdict, Violation
    from repro.spec.idl_spec import check_idl
    from repro.spec.mutex_spec import CsInterval, check_mutex, cs_intervals, service_order
    from repro.spec.pif_spec import check_pif
    from repro.spec.safety_distributed import (
        BadFactor,
        SafetyDistributedSpec,
        concurrent_cs_count,
        mutual_exclusion_spec,
    )
    from repro.spec.temporal import (
        TemporalResult,
        always,
        count,
        event,
        eventually,
        leads_to,
        never,
        precedes,
    )
    from repro.spec.waves import Wave, extract_waves

__all__ = [
    "BadFactor",
    "TemporalResult",
    "always",
    "count",
    "event",
    "eventually",
    "leads_to",
    "never",
    "precedes",
    "CsInterval",
    "SafetyDistributedSpec",
    "SpecVerdict",
    "Violation",
    "Wave",
    "check_idl",
    "check_mutex",
    "check_pif",
    "concurrent_cs_count",
    "cs_intervals",
    "extract_waves",
    "mutual_exclusion_spec",
    "service_order",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("SpecVerdict", "Violation"),
    "idl_spec": ("check_idl",),
    "mutex_spec": (
        "CsInterval", "check_mutex", "cs_intervals", "service_order",
    ),
    "pif_spec": ("check_pif",),
    "safety_distributed": (
        "BadFactor", "SafetyDistributedSpec", "concurrent_cs_count",
        "mutual_exclusion_spec",
    ),
    "temporal": (
        "TemporalResult", "always", "count", "event", "eventually", "leads_to",
        "never", "precedes",
    ),
    "waves": ("Wave", "extract_waves"),
})
