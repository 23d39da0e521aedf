"""Order statistics shared by the runner and the paired comparison."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "TAIL_PERCENTILES",
    "percentile",
    "relative_iqr",
    "quartiles",
    "supported_tail",
]

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Linearly interpolated ``p``-th percentile (0 <= p <= 100)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_tail(n_samples: int) -> float | None:
    """The highest tail percentile with >= 10 samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if n_samples * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            return p
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)
