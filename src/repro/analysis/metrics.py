"""Summary statistics for experiment measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    p50: float
    p95: float
    minimum: float
    maximum: float


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted sample."""
    if not ordered:
        raise ValueError("empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Summary:
    """Summarize a non-empty sample; raises ValueError on empty input."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    return Summary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=_percentile(ordered, 50),
        p95=_percentile(ordered, 95),
        minimum=ordered[0],
        maximum=ordered[-1],
    )
