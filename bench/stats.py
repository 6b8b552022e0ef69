"""Order statistics shared by the benchmark, its comparison tool and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

__all__ = ["percentile", "tail_percentile", "quartiles"]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int, beyond: int = 10) -> Optional[int]:
    """The highest whole percentile with at least ``beyond`` of ``count`` samples above it.

    A tail percentile is only worth reporting when enough samples lie past
    it: 100 samples support p90, 32 support p68, 10 or fewer support none.
    """
    if count <= beyond:
        return None
    return (100 * (count - beyond)) // count


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

