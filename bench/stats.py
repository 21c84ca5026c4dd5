"""Order statistics shared by the runner, the tracer and ``compare.py``.

Quartiles use :func:`statistics.quantiles` with its default
(exclusive) method, so a spread printed here is the spread a reader
recomputes from the same samples with the standard library.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer it would rest on a handful of outliers.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def tail_percentile(
    values: Sequence[float], percent: float, min_beyond: int = MIN_BEYOND,
) -> Optional[float]:
    """The *percent*-th percentile, or None when fewer than
    *min_beyond* samples lie strictly above it."""
    values = sorted(values)
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    value = cuts[int(percent) - 1]
    beyond = sum(1 for sample in values if sample > value)
    return value if beyond >= min_beyond else None
