"""Specifications 1-3, each one streaming automaton, and Definition 5."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.spec.base import SpecVerdict, Violation
    from repro.spec.idl_spec import IdlAutomaton, check_idl
    from repro.spec.mutex_spec import (
        CsInterval,
        MutexAutomaton,
        check_mutex,
        cs_intervals,
        service_order,
    )
    from repro.spec.pif_spec import PifAutomaton, check_pif
    from repro.spec.safety_distributed import (
        BadFactor,
        SafetyDistributedSpec,
        concurrent_cs_count,
        mutual_exclusion_spec,
    )
    from repro.spec.waves import Wave, extract_waves

__all__ = [
    "BadFactor",
    "CsInterval",
    "IdlAutomaton",
    "MutexAutomaton",
    "PifAutomaton",
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
    "idl_spec": ("IdlAutomaton", "check_idl"),
    "mutex_spec": (
        "CsInterval", "MutexAutomaton", "check_mutex", "cs_intervals",
        "service_order",
    ),
    "pif_spec": ("PifAutomaton", "check_pif"),
    "safety_distributed": (
        "BadFactor", "SafetyDistributedSpec", "concurrent_cs_count",
        "mutual_exclusion_spec",
    ),
    "waves": ("Wave", "extract_waves"),
})
