"""Summary arithmetic for the benchmark: percentiles and failure share.

Pure standard library, so the rules can be tested without the
matching package.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles a run may report as its tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the
    nearest-rank ``q``-th percentile."""
    return n - nearest_rank(n, q)


def nearest_rank(n: int, q: float) -> int:
    """1-based rank of the nearest-rank ``q``-th percentile of ``n``
    samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (``None`` when even
    the lowest candidate has too few)."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def min_samples_for(q: float) -> int:
    """Fewest samples for which ``q`` qualifies as the tail."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``inf`` entries sort last)."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def op_latencies(latencies: Sequence[float],
                 failed: Sequence[bool]) -> list[float]:
    """Latencies with every failed op counted as ``inf``: an op that
    failed or was refused misses any latency limit."""
    if len(latencies) != len(failed):
        raise ValueError("one failure flag per latency")
    return [math.inf if bad else float(t)
            for t, bad in zip(latencies, failed)]


def failed_frac(attempted: int, failed: int) -> float:
    """Failed or wrong ops divided by attempted ops."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the middle two for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of nothing")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
