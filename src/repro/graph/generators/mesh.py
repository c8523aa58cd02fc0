"""Structured mesh generators — Queen_4147 / HV15R analogs.

Queen_4147 and HV15R are 3D finite-element / CFD matrices: near-regular
degree (79 and 140 on average), tiny degree variance, strong locality.
That regularity is why SR-GPU's fixed vertices-per-warp trick beats LD-GPU
on them in Table IV.  We reproduce the class with lattice graphs whose
stencil radius controls the degree.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = ["queen_mesh", "fem_mesh_3d"]


def _lattice_edges(
    dims: tuple[int, ...], radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """Edges of a d-dimensional lattice with Chebyshev-ball stencil."""
    coords = np.indices(dims).reshape(len(dims), -1).T  # (n, d)
    n = coords.shape[0]
    strides = np.ones(len(dims), dtype=np.int64)
    for k in range(len(dims) - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    ids = coords @ strides

    offsets = np.indices((2 * radius + 1,) * len(dims)).reshape(
        len(dims), -1).T - radius
    # Keep only "positive" half of the stencil so each edge appears once.
    key = offsets @ (np.array([(2 * radius + 1) ** k for k in
                               range(len(dims) - 1, -1, -1)], dtype=np.int64))
    offsets = offsets[key > 0]

    srcs, dsts = [], []
    for off in offsets:
        nbr = coords + off
        ok = np.all((nbr >= 0) & (nbr < np.array(dims)), axis=1)
        srcs.append(ids[ok])
        dsts.append((nbr[ok] @ strides))
    return np.concatenate(srcs), np.concatenate(dsts)


def queen_mesh(
    side: int,
    radius: int = 4,
    seed: int = 0,
    name: str = "queen",
    weighted: bool = True,
) -> CSRGraph:
    """2D ``side × side`` lattice with Chebyshev radius ``radius``.

    Interior degree is ``(2r+1)^2 - 1`` (= 80 for r=4, close to
    Queen_4147's d_avg of 79).
    """
    src, dst = _lattice_edges((side, side), radius)
    g = from_coo(src, dst, np.ones(len(src)), num_vertices=side * side,
                 name=name)
    del src, dst  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed)
    return g


def fem_mesh_3d(
    side: int,
    radius: int = 2,
    seed: int = 0,
    name: str = "fem3d",
    weighted: bool = True,
) -> CSRGraph:
    """3D ``side³`` lattice with Chebyshev radius ``radius``.

    Interior degree ``(2r+1)^3 - 1`` (= 124 for r=2, HV15R's regime).
    """
    src, dst = _lattice_edges((side, side, side), radius)
    g = from_coo(src, dst, np.ones(len(src)),
                 num_vertices=side ** 3, name=name)
    del src, dst  # the weights pass needs only the graph
    if weighted:
        g = assign_uniform_weights(g, seed=seed)
    return g
