"""Graph transforms: induced subgraphs, component extraction, pruning.

Real pipelines rarely match a raw graph: SuiteSparse inputs carry
isolated vertices, multiple components and degree-0 padding.  These
helpers mirror the preprocessing the paper's tooling performs before
matching.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.stats import connected_components

__all__ = [
    "induced_subgraph",
    "edge_subgraph",
    "largest_component",
    "drop_light_edges",
    "relabel_by_degree",
]


def edge_subgraph(
    graph: CSRGraph, edge_mask: np.ndarray, name: str | None = None
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph keeping exactly the masked undirected edges.

    ``edge_mask`` is boolean over the graph's undirected edge list in
    :meth:`~repro.graph.csr.CSRGraph.edge_array` order (length
    ``num_edges``).  The vertex set is preserved — ids stay global, so
    matchings computed on the subgraph are directly comparable (and
    mergeable) across subgraphs of the same parent.  This is the one
    extraction path shared by coreset shard staging
    (:mod:`repro.matching.coreset`) and weight-threshold pruning.

    Returns ``(sub, eids)`` where ``eids[k]`` is the position *in the
    parent's* ``edge_array`` order of the subgraph's ``k``-th edge (also
    ``edge_array`` order) — the original-eid mapping that lets callers
    carry per-edge metadata across the extraction.
    """
    mask = np.asarray(edge_mask)
    if mask.dtype != np.bool_:
        raise ValueError("edge_mask must be a boolean array")
    u, v, w = graph.edge_array()
    if len(mask) != len(u):
        raise ValueError(
            f"edge_mask has {len(mask)} entries for a graph with "
            f"{len(u)} undirected edges"
        )
    n = graph.num_vertices
    sub_name = name if name is not None else f"{graph.name}-edgesub"
    eids = np.nonzero(mask)[0]
    lo, hi, ww = u[eids], v[eids], w[eids]
    # Parent edges are simple and already canonical (u < v), so the CSR
    # can be bucketed directly — no dedup pass, unlike from_coo.
    order = np.lexsort((hi, lo))
    lo, hi, ww, eids = lo[order], hi[order], ww[order], eids[order]
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    sw = np.concatenate([ww, ww])
    adj = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    sub = CSRGraph(indptr, dst[adj], sw[adj], sub_name)
    return sub, eids


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices`` (relabelled contiguously).

    Returns ``(subgraph, old_ids)`` where ``old_ids[new] = old``.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    if len(vertices) and (
        vertices[0] < 0 or vertices[-1] >= graph.num_vertices
    ):
        raise ValueError("vertex id out of range")
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[vertices] = np.arange(len(vertices), dtype=np.int64)
    u, v, w = graph.edge_array()
    keep = (remap[u] >= 0) & (remap[v] >= 0)
    sub = from_coo(remap[u[keep]], remap[v[keep]], w[keep],
                   num_vertices=len(vertices),
                   name=f"{graph.name}-induced")
    return sub, vertices


def largest_component(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """The largest connected component as a relabelled subgraph."""
    labels = connected_components(graph)
    if len(labels) == 0:
        return graph, np.empty(0, dtype=np.int64)
    uniq, counts = np.unique(labels, return_counts=True)
    big = uniq[int(np.argmax(counts))]
    return induced_subgraph(graph, np.nonzero(labels == big)[0])


def drop_light_edges(graph: CSRGraph, threshold: float) -> CSRGraph:
    """Remove edges with weight below ``threshold``.

    A standard sparsification step before matching-based coarsening
    (only strong couplings should aggregate).
    """
    _, _, w = graph.edge_array()
    sub, _ = edge_subgraph(graph, w >= threshold,
                           name=f"{graph.name}-pruned")
    return sub


def relabel_by_degree(graph: CSRGraph,
                      descending: bool = True) -> tuple[CSRGraph, np.ndarray]:
    """Renumber vertices by degree.

    Contiguous partitions split hub-heavy prefixes badly; degree ordering
    is the classic preconditioner for partition balance studies.  Returns
    ``(graph, old_ids)``.
    """
    order = np.argsort(-graph.degrees if descending else graph.degrees,
                       kind="stable").astype(np.int64)
    remap = np.empty(graph.num_vertices, dtype=np.int64)
    remap[order] = np.arange(graph.num_vertices, dtype=np.int64)
    u, v, w = graph.edge_array()
    out = from_coo(remap[u], remap[v], w,
                   num_vertices=graph.num_vertices,
                   name=f"{graph.name}-bydeg")
    return out, order
