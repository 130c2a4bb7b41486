"""Order statistics shared by the runner, the series tool and the comparison."""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence

# Tail percentiles are taken from this ladder, never interpolated.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile that leaves ``MIN_BEYOND`` of ``count`` samples above it."""
    fits = [p for p in TAIL_LADDER if count - math.ceil(p / 100.0 * count) >= MIN_BEYOND]
    if not fits:
        raise ValueError(f"{count} samples leave fewer than {MIN_BEYOND} beyond the median")
    return fits[-1]


def tail(values: Sequence[float], guaranteed: int | None = None) -> tuple[float, float, int]:
    """Tail percentile of ``values`` as ``(percentile, value, samples_beyond)``.

    The percentile is chosen for ``guaranteed`` samples, the least a run
    collects, so that it stays the same from run to run and from commit to
    commit however many samples a faster program fits in.  A sample counts
    as beyond only when it is strictly greater than the percentile's value.
    """
    ordered = sorted(values)
    p = tail_percentile(guaranteed or len(ordered))
    value = percentile(ordered, p)
    beyond = len(ordered) - bisect.bisect_right(ordered, value)
    if beyond < MIN_BEYOND:
        raise ValueError(f"only {beyond} samples beyond p{p:g}")
    return p, value, beyond


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
