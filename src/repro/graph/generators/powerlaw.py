"""Power-law / community generator — com-Orkut and com-Friendster analogs.

Social networks combine a heavy-tailed degree distribution (d_max in the
tens of thousands) with community locality.  Both properties matter for the
paper: the tail drives warp-level load imbalance in the pointing kernel
(Fig. 8's high-variance bars) and the long low-weight fringe drives the
~2,000-iteration tail the paper reports for com-Friendster on V100
(Fig. 10 discussion).

We use a Chung–Lu model: each vertex gets an expected degree from a
discretised power law and edges are sampled proportional to weight
products, then shifted toward community-local endpoints with probability
``locality``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = ["powerlaw_cluster_graph"]


def powerlaw_cluster_graph(
    num_vertices: int,
    avg_degree: float = 20.0,
    exponent: float = 2.3,
    locality: float = 0.5,
    community_size: int = 256,
    seed: int = 0,
    name: str = "powerlaw",
    weighted: bool = True,
) -> CSRGraph:
    """Chung–Lu power-law graph with community rewiring.

    Parameters
    ----------
    exponent:
        Degree power-law exponent (>2 so the mean exists); 2.3 is typical
        of social graphs.
    locality:
        Fraction of sampled edges whose second endpoint is redrawn from the
        first endpoint's community block, producing clustering and the
        contiguous-partition locality real social graphs exhibit after
        community-aware vertex orderings.
    """
    if exponent <= 2.0:
        raise ValueError("exponent must exceed 2 for a finite mean")
    rng = np.random.default_rng(seed)
    n = num_vertices
    m = int(n * avg_degree / 2)
    src, dst = _chung_lu_edges(n, m, exponent, locality, community_size,
                               rng)
    g = from_coo(src, dst, np.ones(m), num_vertices=n, name=name)
    del src, dst  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed + 1)
    return g


def _chung_lu_edges(n: int, m: int, exponent: float, locality: float,
                    community_size: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``m`` Chung–Lu samples ``(src, dst)``, a ``locality`` share of
    them rewired into the source's community block."""
    # Discretised Pareto expected degrees, rescaled to the target mean.
    raw = (1.0 - rng.random(n)) ** (-1.0 / (exponent - 1.0))
    weights_cl = raw / raw.sum()

    src = rng.choice(n, size=m, p=weights_cl).astype(np.int64)
    dst = rng.choice(n, size=m, p=weights_cl).astype(np.int64)

    # Community rewiring: with prob `locality`, pull dst into src's block.
    local = rng.random(m) < locality
    block = src[local] // community_size
    offset = rng.integers(0, community_size, size=int(local.sum()),
                          dtype=np.int64)
    dst[local] = np.minimum(block * community_size + offset, n - 1)
    return src, dst
