"""Order statistics and span arithmetic used by the benchmark report."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``.

    Refuses a percentile with fewer than ``MIN_BEYOND`` samples above its
    rank: such a tail is one or two unlucky samples, not a distribution.
    """
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def min_samples(p: float) -> int:
    """Fewest samples for which ``percentile(values, p)`` is defined."""
    n = MIN_BEYOND
    while n - max(1, math.ceil(p / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n


def critical_path_calls(intervals: Iterable[tuple[float, float]]) -> int:
    """Longest chain of non-overlapping (start, end) intervals.

    Intervals that overlap ran concurrently, so this counts the calls a task
    had to wait for one after another. Taking the earliest-ending interval
    that starts after the chain's last end maximizes the chain length.
    """
    count = 0
    last_end = -math.inf
    for start, end in sorted(intervals, key=lambda pair: pair[1]):
        if start >= last_end:
            count += 1
            last_end = end
    return count
