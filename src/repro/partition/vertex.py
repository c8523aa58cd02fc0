"""Contiguous vertex partitioning across devices.

The paper partitions "with an attempt to assign similar #edges across the
partitions (#vertices can be dissimilar) ... ensuring contiguous vertex IDs
among partitions for coalesced global memory accesses" (§III-A).  With CSR
prefix sums available, the edge-balanced split is a ``searchsorted`` over
``indptr`` at the ideal cumulative-edge targets.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "edge_balanced_partition",
    "vertex_balanced_partition",
    "partition_edge_counts",
]


def _validate(num_vertices: int, num_parts: int) -> None:
    if num_parts < 1:
        raise ValueError("need at least one partition")
    if num_vertices < 0:
        raise ValueError("negative vertex count")


def edge_balanced_partition(indptr: np.ndarray, num_parts: int) -> np.ndarray:
    """Offsets of ``num_parts`` contiguous vertex ranges with near-equal
    incident-edge counts.

    Returns an ``int64`` array ``offsets`` of length ``num_parts + 1`` with
    ``offsets[0] == 0`` and ``offsets[-1] == n``; part ``i`` owns vertices
    ``[offsets[i], offsets[i+1])``.  Parts may be empty when the graph has
    fewer hot rows than parts (a single huge hub cannot be split —
    contiguity is preserved over balance, as in the paper).
    """
    n = len(indptr) - 1
    _validate(n, num_parts)
    total = int(indptr[-1])
    targets = (np.arange(1, num_parts, dtype=np.float64) / num_parts) * total
    cuts = np.searchsorted(indptr, targets, side="left").astype(np.int64)
    offsets = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    np.maximum.accumulate(offsets, out=offsets)  # enforce monotonicity
    np.clip(offsets, 0, n, out=offsets)
    return offsets


def vertex_balanced_partition(num_vertices: int,
                              num_parts: int) -> np.ndarray:
    """Naive equal-#vertices split — the ablation baseline showing why the
    paper balances edges instead."""
    _validate(num_vertices, num_parts)
    base = num_vertices // num_parts
    rem = num_vertices % num_parts
    sizes = np.full(num_parts, base, dtype=np.int64)
    sizes[:rem] += 1
    offsets = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def partition_edge_counts(indptr: np.ndarray,
                          offsets: np.ndarray) -> np.ndarray:
    """Incident (directed) edge count of each part.

    ``offsets`` may cover vertices past the end of ``indptr`` when the
    CSR was truncated after its last non-empty row (a trailing empty
    vertex range): entries up to the nominal vertex count index one past
    ``indptr``'s final slot and used to raise ``IndexError``.  Those
    vertices have no incident edges, so the cumulative count saturates
    at ``indptr[-1]`` — the clamp makes that defined behaviour instead
    of an off-by-one crash.  Offsets must be non-decreasing and
    non-negative; anything else is a caller bug and raises.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if len(offsets) == 0:
        return np.empty(0, dtype=np.int64)
    if offsets[0] < 0:
        raise ValueError("partition offsets must be non-negative")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("partition offsets must be non-decreasing")
    last = len(indptr) - 1
    return np.diff(indptr[np.minimum(offsets, last)])

