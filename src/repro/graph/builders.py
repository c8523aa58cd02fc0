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

from repro.graph.csr import CSRGraph, GraphFormatError

__all__ = [
    "from_edges",
    "from_coo",
    "from_scipy_sparse",
    "from_networkx",
    "to_networkx",
    "compact_vertices",
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
    u = arr[:, 0].astype(np.int64)
    v = arr[:, 1].astype(np.int64)
    w = arr[:, 2]
    return from_coo(u, v, w, num_vertices=num_vertices, name=name)


def from_coo(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    num_vertices: int | None = None,
    name: str = "graph",
) -> CSRGraph:
    """Build from parallel COO arrays (one or both orientations)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
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

    # Canonicalise (lo, hi), drop self-loops, dedupe keeping max weight.
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    w = w[keep]
    if len(lo) == 0:
        return CSRGraph.empty(n, name)
    key = lo * np.int64(n) + hi
    # Duplicates share a key, so they land together in any sort; the
    # heaviest of each run is kept.
    order = np.argsort(key)
    key = key[order]
    dup = key[1:] == key[:-1]
    if dup.any():
        first = np.flatnonzero(np.concatenate(([True], ~dup)))
        w = np.maximum.reduceat(w[order], first)
        order = order[first]
    else:
        w = w[order]
    lo, hi = lo[order], hi[order]

    # Symmetrise by halves.  Sorted by key, the (lo, hi) half is in
    # CSR row order already, and each row lists its lower neighbours
    # (the mirrored (hi, lo) half) before its upper ones, so only the
    # mirrored half needs a sort; an entry's slot is its rank in its
    # half plus the other half's entries in the rows up to its own.
    lower = np.bincount(hi, minlength=n)
    upper = np.bincount(lo, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lower + upper, out=indptr[1:])
    mirror = np.argsort(hi * np.int64(n) + lo)
    rank = np.arange(len(lo), dtype=np.int64)
    up_at = rank + np.cumsum(lower)[lo]
    low_at = rank + (np.cumsum(upper) - upper)[hi[mirror]]
    indices = np.empty(2 * len(lo), dtype=np.int64)
    weights = np.empty(2 * len(lo), dtype=np.float64)
    indices[up_at] = hi
    weights[up_at] = w
    indices[low_at] = lo[mirror]
    weights[low_at] = w[mirror]
    return CSRGraph(indptr, indices, weights, name)


def from_scipy_sparse(mat, name: str = "graph") -> CSRGraph:
    """Build from any scipy sparse matrix (pattern is symmetrised).

    Zero / negative entries are treated as "no natural weight" only if the
    whole matrix lacks positive weights; otherwise they are dropped, which
    matches how the paper ingests SuiteSparse matrices.
    """
    coo = mat.tocoo()
    if coo.shape[0] != coo.shape[1]:
        raise GraphFormatError("adjacency matrix must be square")
    data = np.asarray(coo.data, dtype=np.float64)
    pos = data > 0
    if not pos.any() and len(data):
        # Pattern-only matrix: assign unit weights, caller can reweight.
        data = np.ones_like(data)
        pos = data > 0
    return from_coo(
        coo.row[pos].astype(np.int64),
        coo.col[pos].astype(np.int64),
        data[pos],
        num_vertices=coo.shape[0],
        name=name,
    )


def from_networkx(nxg, weight: str = "weight", name: str | None = None) -> CSRGraph:
    """Build from a networkx graph; missing weights default to 1.0."""
    nodes = list(nxg.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    u, v, w = [], [], []
    for a, b, data in nxg.edges(data=True):
        u.append(index[a])
        v.append(index[b])
        w.append(float(data.get(weight, 1.0)))
    return from_coo(
        np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        num_vertices=len(nodes),
        name=name or getattr(nxg, "name", "") or "graph",
    )


def to_networkx(graph: CSRGraph):
    """Export to a weighted ``networkx.Graph`` (test / interop helper)."""
    import networkx as nx

    nxg = nx.Graph(name=graph.name)
    nxg.add_nodes_from(range(graph.num_vertices))
    u, v, w = graph.edge_array()
    nxg.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
    return nxg


def compact_vertices(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """Drop isolated vertices, relabelling the rest contiguously.

    Returns the compacted graph and the old-id array indexed by new id.
    """
    alive = np.nonzero(graph.degrees > 0)[0]
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[alive] = np.arange(len(alive), dtype=np.int64)
    u, v, w = graph.edge_array()
    out = from_coo(remap[u], remap[v], w, num_vertices=len(alive),
                   name=graph.name)
    return out, alive
