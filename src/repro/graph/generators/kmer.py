"""k-mer / de-Bruijn-like generator — kmer_U1a / kmer_V2a analogs.

The GenBank k-mer graphs have average degree 2–4 and enormous diameter:
they are unions of long, sparsely branching chains.  That structure is what
makes them *batching-friendly* in the paper (Fig. 6: scalability appears only
once ≥3 batches spread the per-iteration frontier) and gives LD-GPU many
cheap iterations.

We synthesise the same class directly: ``num_chains`` vertex-disjoint paths
whose lengths follow a geometric mix, plus a controlled number of random
short-range "branch" edges that lift the average degree from 2 toward the
target.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = ["kmer_graph"]


def kmer_graph(
    num_vertices: int,
    avg_degree: float = 3.0,
    num_chains: int | None = None,
    branch_span: int = 64,
    seed: int = 0,
    name: str = "kmer",
    weighted: bool = True,
) -> CSRGraph:
    """Union of long paths with local branch edges.

    Parameters
    ----------
    avg_degree:
        Target average degree in [2, 8]; 2 gives pure paths (kmer_V2a's
        regime), ~4 matches kmer_U1a.
    num_chains:
        Number of disjoint chains; defaults to ``max(1, n // 4096)`` —
        k-mer graphs have many connected components.
    branch_span:
        Branch edges connect vertices at most this far apart along the
        chain-id order, preserving the locality a contiguous partition of a
        k-mer graph has.
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if avg_degree < 1.0:
        raise ValueError("avg_degree must be >= 1")
    rng = np.random.default_rng(seed)
    n = num_vertices
    chains = num_chains if num_chains is not None else max(1, n // 4096)
    chains = min(chains, n // 2)
    src, dst, bounds = _kmer_edges(n, avg_degree, chains, branch_span, rng)
    g = from_coo(src, dst, np.ones(len(src)), num_vertices=n, name=name)
    del src, dst  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed + 1)
    # Bookkeeping for tests: expose chain structure.
    g.chain_bounds = bounds  # type: ignore[attr-defined]
    return g


def _kmer_edges(n: int, avg_degree: float, chains: int, branch_span: int,
                rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst)`` of ``chains`` paths plus local branch edges, and
    the paths' ``[start, end)`` bounds as rows."""
    # Chain boundaries: split [0, n) into `chains` contiguous runs of
    # random (Dirichlet-ish) lengths, each run becoming a path.
    cuts = np.sort(rng.choice(np.arange(1, n), size=chains - 1,
                              replace=False)) if chains > 1 else np.array(
        [], dtype=np.int64)
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n]])

    ids = np.arange(n, dtype=np.int64)
    path_src = ids[:-1]
    path_dst = ids[1:]
    # Remove the edge crossing each chain boundary.
    keep = np.ones(n - 1, dtype=bool)
    keep[cuts - 1] = False
    path_src, path_dst = path_src[keep], path_dst[keep]

    # Branch edges: directed pairs (i, i + delta) with small local span.
    extra = max(0, int(n * (avg_degree - 2.0) / 2.0))
    if extra > 0:
        bi = rng.integers(0, n, size=extra, dtype=np.int64)
        delta = rng.integers(2, branch_span + 1, size=extra, dtype=np.int64)
        bj = np.minimum(bi + delta, n - 1)
        src = np.concatenate([path_src, bi])
        dst = np.concatenate([path_dst, bj])
    else:
        src, dst = path_src, path_dst
    return src, dst, np.stack([starts, ends], axis=1)
