"""Percentiles and spreads the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A percentile is reported only with at least this many samples beyond it,
# so p90 needs 100 samples and p50 needs 20.
MIN_TAIL_SAMPLES = 10


class InsufficientSamplesError(ValueError):
    """Too few samples for the requested percentile."""


def min_samples(pct: float) -> int:
    """Smallest sample count that leaves ``MIN_TAIL_SAMPLES`` beyond ``pct``."""
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    return math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100.0 - pct) - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, refused when the tail is too thin.

    Raises:
        InsufficientSamplesError: Fewer than :func:`min_samples` values.
    """
    need = min_samples(pct)
    if len(values) < need:
        raise InsufficientSamplesError(
            f"p{pct:g} needs at least {need} samples, got {len(values)}"
        )
    ordered = sorted(float(v) for v in values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    """Median of at least one value (no tail rule: a per-pass summary)."""
    if not values:
        raise InsufficientSamplesError("median of no values")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / |median|)`` as the acceptance check takes
    them (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else math.inf)
    return q1, q2, q3, spread
