"""Arithmetic of the end-to-end benchmark.

Medians, the tail percentile with enough samples beyond it, span self
times and the failure ratio.  Standard library only, so the self-tests
(``python3 -m unittest discover -s e2ebench``) run without the program
under test.
"""

from __future__ import annotations

import math
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """The middle value; the mean of the two middle values for even n."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], q: float = 90,
                    min_beyond: int = 10) -> tuple[float, float]:
    """``(q_used, value)``: the ``q``-th percentile when at least
    ``min_beyond`` samples lie beyond it, else the highest percentile
    that has that many beyond it, but never below the median.

    With nearest rank, the samples beyond percentile ``p`` of ``n``
    number ``n - ceil(p * n / 100)``.
    """
    n = len(values)
    if not n:
        raise ValueError("percentile of no values")
    q_used = float(q)
    if n - math.ceil(q_used / 100 * n) < min_beyond:
        q_used = max(50.0, math.floor(100 * (n - min_beyond) / n))
    return q_used, percentile(values, q_used)


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed cells (cells that failed plus cells whose output check
    failed, counted once each) over cells attempted."""
    if attempted < 1:
        raise ValueError("no cells attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def covered_length(intervals: Sequence[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Self time of each span: its duration minus the part of it that
    its child spans cover.  Children that overlap each other (spans
    from several threads) are counted once, through their union.
    ``parents[i]`` is the index of span ``i``'s parent, or -1."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        covered = covered_length(kids, start, end) if kids else 0.0
        out.append(end - start - covered)
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
