"""Recursive MATrix (R-MAT / Kronecker) generator.

GAP-kron in the paper is a scale-27 Kronecker graph (Graph500 parameters
a=0.57, b=c=0.19, d=0.05); AGATHA-2015 and MOLIERE_2016 are skewed
literature-mining graphs that we approximate with milder skew.  The
generator is fully vectorised: each of the ``m`` samples picks one quadrant
per recursion level from a single ``(m, scale)`` uniform draw.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = ["rmat_graph"]

GRAPH500 = (0.57, 0.19, 0.19, 0.05)


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    probs: tuple[float, float, float, float] = GRAPH500,
    seed: int = 0,
    noise: float = 0.1,
    name: str = "rmat",
    weighted: bool = True,
) -> CSRGraph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        ``n = 2**scale`` vertices.
    edge_factor:
        ``m = edge_factor * n`` directed samples before deduplication (the
        Graph500 convention), so the simple graph has somewhat fewer edges.
    probs:
        Quadrant probabilities ``(a, b, c, d)``; must sum to 1.
    noise:
        Per-level multiplicative jitter on ``a`` (SuiteSparse ssget's
        "smoothing" that avoids exact self-similarity artifacts).
    weighted:
        Assign uniform (0, 1] weights (the paper's scheme); otherwise unit.
    """
    a, b, c, d = probs
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError(f"R-MAT probabilities must sum to 1, got {probs}")
    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)
    src, dst = _rmat_edges(scale, m, probs, noise, rng)
    g = from_coo(src, dst, np.ones(m, dtype=np.float64), num_vertices=n,
                 name=name)
    del src, dst  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed + 1)
    return g


def _rmat_edges(scale: int, m: int, probs: tuple[float, ...],
                noise: float, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """``m`` R-MAT samples ``(src, dst)`` on ``2**scale`` vertices."""
    a, b, c, d = probs
    n = 1 << scale
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        # Jitter keeps degree distribution heavy-tailed but non-degenerate.
        jitter = 1.0 + noise * (2.0 * rng.random() - 1.0)
        aa, bb, cc, dd = a * jitter, b, c, d
        s = aa + bb + cc + dd
        aa, bb, cc, dd = aa / s, bb / s, cc / s, dd / s
        # Quadrant layout: [0,a)->a (0,0), [a,a+b)->b (0,1),
        # [a+b,a+b+c)->c (1,0), rest->d (1,1).
        r = rng.random(m)
        right = ((r >= aa) & (r < aa + bb)) | (r >= aa + bb + cc)
        lower = r >= aa + bb
        del r
        bit = np.int64(1) << np.int64(scale - 1 - level)
        src += bit * lower
        dst += bit * right

    # Permute vertex ids so high-degree vertices are not clustered at 0 —
    # matches the Graph500 post-permutation GAP-kron ships with.
    perm = rng.permutation(n).astype(np.int64)
    return perm[src], perm[dst]
