"""Constructors for :class:`~repro.graph.csr.CSRGraph`.

All builders normalise their input to the invariants ``CSRGraph.validate``
checks: simple (no self-loops, no parallel edges), symmetric, finite
strictly positive weights, sorted adjacency.  Duplicate undirected edges
are resolved by keeping the maximum weight — the convention SuiteSparse
loaders use for pattern-symmetrised matrices.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.csr import CSRGraph, GraphFormatError, _stable_by

__all__ = [
    "from_edges",
    "from_coo",
]


def from_edges(
    edges: Iterable[tuple[int, int, float]],
    num_vertices: int | None = None,
    name: str = "graph",
) -> CSRGraph:
    """Build from an iterable of ``(u, v, w)`` triples.

    Either orientation may be given (or both); self-loops are dropped and
    duplicates keep the heaviest weight.
    """
    triples = list(edges)
    if not triples:
        return CSRGraph.empty(num_vertices or 0, name)
    arr = np.asarray(triples, dtype=np.float64)
    return from_coo(arr[:, 0], arr[:, 1], arr[:, 2],
                    num_vertices=num_vertices, name=name)


def from_coo(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    num_vertices: int | None = None,
    name: str = "graph",
) -> CSRGraph:
    """Build from parallel COO arrays (one or both orientations).

    Vertex ids must be integral: a float id with a fractional part, or
    a non-finite one, raises :class:`GraphFormatError` rather than
    being truncated.  Besides its inputs and its output the build holds
    a few arrays of one entry per input edge at a time (``int32`` ids
    when ``n < 2^31``), each freed as soon as it is spent.
    """
    u = _vertex_ids(u)
    v = _vertex_ids(v)
    w = np.asarray(w, dtype=np.float64)
    if not (len(u) == len(v) == len(w)):
        raise GraphFormatError("COO arrays must have equal length")
    if len(u) and (u.min() < 0 or v.min() < 0):
        raise GraphFormatError("negative vertex id")
    # ``w < inf`` also rejects NaN, which fails every comparison.
    if len(w) and not np.all((w > 0) & (w < np.inf)):
        raise GraphFormatError(
            "edge weights must be finite and strictly positive")

    n = int(max(u.max(initial=-1), v.max(initial=-1)) + 1) if len(u) else 0
    if num_vertices is not None:
        if num_vertices < n:
            raise GraphFormatError(
                f"num_vertices={num_vertices} smaller than max id + 1 ({n})"
            )
        n = num_vertices
    if len(u) == 0:
        return CSRGraph.empty(n, name)

    # Canonicalise each edge to its key lo * n + hi (computed as
    # lo * (n - 1) + u + v, which needs no second temporary), drop
    # self-loops, dedupe keeping the max weight.
    key = np.minimum(u, v)
    key *= n - 1
    key += u
    key += v
    keep = u != v
    if not keep.all():
        key, w = key[keep], w[keep]
    del keep
    if len(key) == 0:
        return CSRGraph.empty(n, name)
    # Duplicates share a key, so they land together in any sort; the
    # heaviest of each run is kept.
    order = np.argsort(key)
    key = key[order]
    w = w[order]
    del order
    dup = key[1:] == key[:-1]
    if dup.any():
        first = np.flatnonzero(np.concatenate(([True], ~dup)))
        w = np.maximum.reduceat(w, first)
        key = key[first]
        del first
    del dup
    m = len(key)
    id_dtype = np.int32 if n < 2**31 else np.int64
    lo, hi = np.empty(m, id_dtype), np.empty(m, id_dtype)
    np.divmod(key, n, out=(lo, hi))
    del key

    # Symmetrise by halves.  Sorted by key, the (lo, hi) half is in
    # CSR row order already; each row lists its lower neighbours (the
    # mirrored (hi, lo) half, which a stable radix sort by ``hi`` puts
    # in order) before its upper ones, so a mask of the upper slots
    # places both halves.
    lower = np.bincount(hi, minlength=n)
    upper = np.bincount(lo, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lower + upper, out=indptr[1:])
    slot_up = np.repeat(np.tile([False, True], n),
                        np.stack([lower, upper], axis=1).ravel())
    del lower, upper
    mirror = _stable_by(np.arange(m, dtype=np.int32 if m < 2**31
                                  else np.int64), hi, n - 1)
    indices = np.empty(2 * m, dtype=np.int64)
    weights = np.empty(2 * m, dtype=np.float64)
    indices[slot_up] = hi
    del hi
    weights[slot_up] = w
    np.logical_not(slot_up, out=slot_up)
    indices[slot_up] = lo[mirror]
    del lo
    weights[slot_up] = w[mirror]
    return CSRGraph(indptr, indices, weights, name)


def _vertex_ids(ids) -> np.ndarray:
    """``ids`` as ``int64``, refusing float ids that are not integral."""
    ids = np.asarray(ids)
    if ids.dtype.kind == "f" and not np.all(np.isfinite(ids)
                                           & (ids == np.trunc(ids))):
        raise GraphFormatError("vertex ids must be integers")
    return ids.astype(np.int64, copy=False)
