"""Iterated Mycielskian construction — mycielskian18 analog.

SuiteSparse's ``mycielskian<k>`` graphs apply the Mycielski transform k-2
times starting from a single edge (K2).  The transform triples the edge
count and roughly doubles the vertex count, producing triangle-rich,
high-degree-variance graphs — the paper's occupancy outlier (Fig. 11), where
SM occupancy collapses to ~30% in the late iterations.

Given a graph ``G(V, E)``, the Mycielskian ``M(G)`` has vertices
``V ∪ V' ∪ {z}``; it keeps ``E``, adds ``{u', v}`` and ``{u, v'}`` for every
``{u, v} ∈ E``, and connects ``z`` to every shadow vertex ``v'``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = ["mycielskian_graph", "mycielskian_step"]


def mycielskian_step(
    u: np.ndarray, v: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """One Mycielski transform on an edge list; returns the new list."""
    shadow_u = u + n  # u'
    shadow_v = v + n  # v'
    z = 2 * n
    new_u = np.concatenate([
        u,              # original edges {u, v}
        shadow_u,       # {u', v}
        u,              # {u, v'}
        np.full(n, z, dtype=np.int64),  # {z, v'}
    ])
    new_v = np.concatenate([
        v,
        v,
        shadow_v,
        np.arange(n, 2 * n, dtype=np.int64),
    ])
    return new_u, new_v, 2 * n + 1


def mycielskian_graph(
    order: int,
    seed: int = 0,
    name: str | None = None,
    weighted: bool = True,
) -> CSRGraph:
    """``mycielskian<order>``: K2 with the transform applied ``order - 2``
    times (order 2 is K2 itself, matching SuiteSparse's naming)."""
    if order < 2:
        raise ValueError("order must be >= 2")
    u = np.array([0], dtype=np.int64)
    v = np.array([1], dtype=np.int64)
    n = 2
    for _ in range(order - 2):
        u, v, n = mycielskian_step(u, v, n)
    g = from_coo(u, v, np.ones(len(u)), num_vertices=n,
                 name=name or f"mycielskian{order}")
    del u, v  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed)
    return g
