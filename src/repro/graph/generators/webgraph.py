"""Copying-model web crawl generator — uk-2007-05 / webbase-2001 analogs.

LAW web crawls pair extreme degree skew (a 2.1M-degree hub in webbase-2001)
with strong *lexicographic locality*: URLs sorted by host give adjacency
that is mostly near-diagonal.  That locality is what makes the paper's
contiguous vertex partitions viable on web graphs, while the hubs stress a
single device's warp balance.

The copying / preferential-attachment model reproduces both: each new
vertex copies a fraction of a random earlier vertex's links (preferential
attachment in disguise → power-law in-degree) and otherwise links to recent
vertices (locality).
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = ["webcrawl_graph"]


def webcrawl_graph(
    num_vertices: int,
    out_degree: int = 16,
    copy_prob: float = 0.5,
    window: int = 1024,
    seed: int = 0,
    name: str = "webcrawl",
    weighted: bool = True,
) -> CSRGraph:
    """Copying-model crawl.

    Vertices arrive in order; vertex ``t`` emits ``out_degree`` links.
    Each link, with probability ``copy_prob``, copies the target of a
    uniformly random existing link (rich-get-richer, giving the power-law
    hub tail); otherwise it targets a uniform vertex within the trailing
    ``window`` (host locality).
    """
    if num_vertices < 4:
        raise ValueError("need at least 4 vertices")
    rng = np.random.default_rng(seed)
    src, dst = _crawl_edges(num_vertices, out_degree, copy_prob, window,
                            rng)
    g = from_coo(src, dst, np.ones(len(src)), num_vertices=num_vertices,
                 name=name)
    del src, dst  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed + 1)
    return g


def _crawl_edges(n: int, d: int, copy_prob: float, window: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The crawl's links ``(src, dst)``, ``d`` per arriving vertex."""
    # Vectorised batched construction: process arrivals in blocks so the
    # copy step can sample from the already-built prefix cheaply.
    src_blocks: list[np.ndarray] = []
    dst_blocks: list[np.ndarray] = []
    all_targets = np.array([0, 1, 2, 1, 2, 0], dtype=np.int64)  # seed triangle
    src_blocks.append(np.array([0, 1, 2], dtype=np.int64))
    dst_blocks.append(np.array([1, 2, 0], dtype=np.int64))

    block_size = max(256, n // 64)
    t = 3
    while t < n:
        hi = min(n, t + block_size)
        count = hi - t
        src = np.repeat(np.arange(t, hi, dtype=np.int64), d)
        copy = rng.random(count * d) < copy_prob
        # Copy step: sample an existing link target (preferential).
        pick = rng.integers(0, len(all_targets), size=count * d)
        copied = all_targets[pick]
        # Local step: uniform in the trailing window before each source.
        lo = np.maximum(src - window, 0)
        local = lo + (rng.random(count * d) * (src - lo)).astype(np.int64)
        dst = np.where(copy, copied, local)
        # No self-links (from_coo drops them anyway; cheap fix keeps count).
        dst = np.where(dst == src, (src + 1) % np.int64(t), dst)
        src_blocks.append(src)
        dst_blocks.append(dst)
        all_targets = np.concatenate([all_targets, dst])
        t = hi

    return np.concatenate(src_blocks), np.concatenate(dst_blocks)
