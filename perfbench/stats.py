"""Order statistics used by the runner and the compare script.

Percentiles are nearest-rank: the reported value is one that was
actually measured, never an interpolation between two samples.  A tail
percentile is only meaningful when enough samples lie beyond it; the
rule used throughout is at least :data:`MIN_TAIL_SAMPLES` samples above
the reported rank.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fastest_by_position(
        timings: Iterable[tuple[int, float]]) -> list[float]:
    """The smallest latency of each position, in position order.

    *timings* are ``(position, latency)`` pairs from the replays of one
    pass; positions that never completed are absent.
    """
    best: dict[int, float] = {}
    for position, latency in timings:
        if latency < best.get(position, math.inf):
            best[position] = latency
    return [best[p] for p in sorted(best)]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_supported(n: int, q: float) -> bool:
    """True when *n* samples leave enough beyond percentile *q*."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
