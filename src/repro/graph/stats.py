"""Graph structure analytics.

Used by the harness to characterise dataset analogs against the paper's
Table I properties (degree skew, component structure, weight profile) and
by users to sanity-check their own inputs before matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "GraphStats",
    "graph_stats",
    "connected_components",
]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a weighted graph."""

    num_vertices: int
    num_edges: int
    max_degree: int
    avg_degree: float
    degree_skew: float  #: d_max / d_avg — warp-imbalance proxy
    isolated_vertices: int
    num_components: int
    largest_component: int
    min_weight: float
    max_weight: float
    total_weight: float

    def render(self) -> str:
        """Multi-line human-readable summary."""
        return "\n".join([
            f"|V| = {self.num_vertices}, |E| = {self.num_edges}",
            f"degrees: max {self.max_degree}, avg {self.avg_degree:.2f}, "
            f"skew {self.degree_skew:.1f}",
            f"components: {self.num_components} "
            f"(largest {self.largest_component}, "
            f"{self.isolated_vertices} isolated vertices)",
            f"weights: [{self.min_weight:.4g}, {self.max_weight:.4g}], "
            f"total {self.total_weight:.4g}",
        ])


def graph_stats(graph: CSRGraph) -> GraphStats:
    """Compute a :class:`GraphStats` summary."""
    degrees = graph.degrees
    labels = connected_components(graph)
    if len(labels):
        _, sizes = np.unique(labels, return_counts=True)
        ncomp = len(sizes)
        largest = int(sizes.max())
    else:
        ncomp, largest = 0, 0
    w = graph.weights
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        max_degree=graph.max_degree,
        avg_degree=graph.avg_degree,
        degree_skew=(graph.max_degree / graph.avg_degree)
        if graph.avg_degree else 0.0,
        isolated_vertices=int(np.count_nonzero(degrees == 0)),
        num_components=ncomp,
        largest_component=largest,
        min_weight=float(w.min()) if len(w) else 0.0,
        max_weight=float(w.max()) if len(w) else 0.0,
        total_weight=graph.total_weight,
    )


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex (labels are component-minimum ids).

    Union-find with path halving, processing each undirected edge once —
    near-linear and allocation-light, suitable for the multi-million-edge
    analogs.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = int(parent[x])
        return x

    u, v, _ = graph.edge_array()
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    # Flatten to final roots.
    labels = np.empty(n, dtype=np.int64)
    for x in range(n):
        labels[x] = find(x)
    return labels

