"""Summary statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """Highest percentile with at least ``TAIL_MIN_BEYOND`` samples beyond it.

    Nearest-rank on the sorted samples: the value at rank
    ``k = n - TAIL_MIN_BEYOND`` has exactly that many samples after it, and is the ``100 k / n``
    percentile. A run whose candidate lies at or below the median is too short
    to have a tail and yields None. Returns ``(value, percentile, n)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_MIN_BEYOND
    if k < 1 or 2 * k <= n:
        return None
    return ordered[k - 1], 100.0 * k / n, n


def spread(values) -> dict:
    """Median, quartiles and their distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(q2) if q2 else math.inf}
