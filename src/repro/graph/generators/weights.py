"""Edge weight assignment.

The paper (§IV, Datasets): *"In cases where natural edge weights were absent
from the datasets, we sample weights from a uniform distribution range of
three decimal points from [0, 1]"*.  We reproduce exactly that — uniform
samples over ``{0.001, 0.002, ..., 1.000}`` (strictly positive, three decimal
places), assigned per *undirected* edge so both CSR directions agree.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, _stable_by

__all__ = ["assign_uniform_weights"]


def assign_uniform_weights(
    graph: CSRGraph, seed: int = 0, decimals: int = 3
) -> CSRGraph:
    """Return ``graph`` with fresh uniform (0, 1] weights.

    Weights are drawn once per undirected edge, in ascending canonical
    edge id order, so the result is independent of adjacency ordering
    and symmetric by construction.  On a graph whose rows list their
    neighbours ascending (every :func:`~repro.graph.builders.from_coo`
    graph) the ``row < col`` entries in CSR order already ascend by
    edge id: the draws go straight into them, and a stable (radix) sort
    of the ``row > col`` entries by column hands each draw to its
    mirrored entry; it relies on the graph being symmetric, as a
    :class:`CSRGraph` is by contract.  Any other graph, or one whose
    two halves differ in size (a self-loop, say), falls back to
    ``np.unique`` over the edge ids.  Nothing is memoised on ``graph``;
    the fast path builds no edge ids.
    """
    m2 = graph.num_directed_edges
    if m2 == 0:
        return graph
    rng = np.random.default_rng(seed)
    levels = 10**decimals
    indices = graph.indices
    rows = graph._row_ids(np.int32 if graph.num_vertices < 2**31
                          else np.int64)
    upper = rows < indices
    m = int(np.count_nonzero(upper))
    if 2 * m != m2 or not graph._rows_ascending():
        del rows, upper
        uniq, inverse = np.unique(graph._build_eids(), return_inverse=True)
        return graph.reweighted(_draw(rng, len(uniq), levels)[inverse])
    weights = np.empty(m2, dtype=np.float64)
    per_edge = _draw(rng, m, levels)
    weights[upper] = per_edge
    del upper
    # Row-major, the row > col entries ascend by (row, col); stably by
    # col they ascend by (col, row), the edge id order of their mirrors.
    lower = np.flatnonzero(rows > indices)
    del rows
    lower = _stable_by(lower, indices, graph.num_vertices - 1)
    weights[lower] = per_edge
    return graph.reweighted(weights)


def _draw(rng: np.random.Generator, size: int, levels: int) -> np.ndarray:
    """``size`` uniform samples over ``{1, ..., levels} / levels``."""
    per_edge = rng.integers(1, levels + 1, size=size).astype(np.float64)
    per_edge /= levels
    return per_edge

