"""Summary statistics shared by ``run.py``, ``compare.py`` and
``workloads.py``."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

__all__ = ["ratio", "quartiles", "summarize"]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; one value is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, count and the samples themselves."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}
