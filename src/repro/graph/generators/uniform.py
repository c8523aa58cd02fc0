"""Uniform random (Erdős–Rényi style) generator — GAP-urand analog.

GAP-urand is a uniform-random graph whose flat degree distribution makes it
the *best* case for LD-GPU in the paper (45× over SR-OMP): every warp gets
near-identical work and the matching converges in few rounds.  We sample
``m`` endpoint pairs uniformly; deduplication leaves ``|E|`` slightly below
``m``, exactly like the GAP suite's generator.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = ["uniform_random_graph"]


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    name: str = "urand",
    weighted: bool = True,
) -> CSRGraph:
    """G(n, m): ``num_edges`` endpoint pairs drawn uniformly at random.

    Self-loops and duplicates are removed downstream, so the realised edge
    count is slightly below ``num_edges`` for dense regimes.
    """
    if num_vertices < 2 and num_edges > 0:
        raise ValueError("need at least 2 vertices to place an edge")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    g = from_coo(src, dst, np.ones(num_edges, dtype=np.float64),
                 num_vertices=num_vertices, name=name)
    del src, dst  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed + 1)
    return g
