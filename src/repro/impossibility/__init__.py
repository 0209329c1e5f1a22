"""Executable Theorem 1: impossibility with unbounded channel capacity."""

from repro.impossibility.construction import (
    Fragment,
    ImpossibilityResult,
    attempt_on_bounded,
    build_gamma0,
    demonstrate_impossibility,
    record_all_fragments,
    record_fragment,
    replay,
)

__all__ = [
    "Fragment",
    "ImpossibilityResult",
    "attempt_on_bounded",
    "build_gamma0",
    "demonstrate_impossibility",
    "record_all_fragments",
    "record_fragment",
    "replay",
]
