"""Warp work assignment and SM occupancy.

§IV-C of the paper studies two device-utilisation signals: per-warp edge
work (Fig. 8) and per-iteration Streaming Multiprocessor occupancy
(Fig. 11).  Both derive from how the pointing kernel distributes contiguous
vertex groups across warps; this module computes them analytically from the
frontier's degree array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gpusim.spec import DeviceSpec

__all__ = [
    "warp_work_distribution",
    "warp_work_distributions",
    "sm_occupancy",
    "WarpWorkStats",
]


@dataclass(frozen=True)
class WarpWorkStats:
    """Per-kernel warp work summary feeding Fig. 8 / the cost model."""

    num_warps: int
    total_work: int
    max_work: int
    mean_work: float
    std_work: float

    @property
    def imbalance(self) -> float:
        """Max/mean warp work (1.0 = perfectly balanced)."""
        return self.max_work / self.mean_work if self.mean_work > 0 else 1.0


#: The statistics of a launch with no vertices.
_NO_WARPS = WarpWorkStats(0, 0, 0, 0.0, 0.0)


def warp_work_distribution(
    work_per_vertex: np.ndarray, vertices_per_warp: int
) -> WarpWorkStats:
    """Work per warp when contiguous groups of ``vertices_per_warp``
    vertices are assigned to each warp (Algorithm 3's distribution)."""
    return warp_work_distributions(
        work_per_vertex, (0, len(work_per_vertex)), vertices_per_warp)[0]


def warp_work_distributions(
    work_per_vertex: np.ndarray, cuts, vertices_per_warp: int
) -> list[WarpWorkStats]:
    """:func:`warp_work_distribution` of every slice
    ``work_per_vertex[cuts[i]:cuts[i + 1]]``, computed in one pass.

    The warp sums of all slices come from one ``np.add.reduceat`` over
    every warp start.  Each slice's statistics equal ``np.mean`` and
    ``np.std`` of its own warp sums, bit for bit: the mean is its total
    over its warp count (a float sum of integer warp sums is exact), and
    its squared deviations are summed with ``np.add.reduce`` over their
    contiguous run, the pairwise sum ``np.std`` uses (a ``reduceat``
    sums sequentially and would differ in the last bits).
    """
    if vertices_per_warp < 1:
        raise ValueError("vertices_per_warp must be >= 1")
    cuts = np.asarray(cuts, dtype=np.intp)
    warps = -(-np.diff(cuts) // vertices_per_warp)
    out = [_NO_WARPS] * len(warps)
    busy = np.flatnonzero(warps)
    if len(busy) == 0:
        return out
    first = np.cumsum(warps) - warps  # each slice's first warp
    starts = np.repeat(cuts[:-1] - first * vertices_per_warp, warps) \
        + vertices_per_warp * np.arange(int(first[-1] + warps[-1]))
    warp_work = np.add.reduceat(
        np.asarray(work_per_vertex, dtype=np.int64)[:cuts[-1]], starts)
    heads, counts = first[busy], warps[busy]
    totals = np.add.reduceat(warp_work, heads)
    means = totals / counts
    dev = warp_work - np.repeat(means, counts)
    np.square(dev, out=dev)
    for s, h, nw, total, top, mean in zip(
            busy.tolist(), heads.tolist(), counts.tolist(),
            totals.tolist(), np.maximum.reduceat(warp_work, heads).tolist(),
            means.tolist()):
        var = float(np.add.reduce(dev[h:h + nw])) / nw
        out[s] = WarpWorkStats(nw, total, top, mean, math.sqrt(var))
    return out


def sm_occupancy(spec: DeviceSpec, num_warps: int) -> float:
    """Achieved occupancy for a launch of ``num_warps`` warps.

    Launches larger than the device's resident-warp capacity saturate the
    SMs (occupancy → 1); smaller launches leave SMs idle — the collapse the
    paper's occupancy outliers (mycielskian18, mouse_gene) show once the
    matching frontier shrinks below the device's width.
    """
    if num_warps < 0:
        raise ValueError("num_warps must be >= 0")
    cap = spec.occupancy_capacity
    if cap == 0:
        return 0.0
    return min(1.0, num_warps / cap)
