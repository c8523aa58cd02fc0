"""LocalMax — Birn et al.'s edge-centric locally dominant matching, kept
as an independent test oracle for the LD family.

The dual view of the pointer algorithm (§II-B): per round, an *edge* is
kept iff it dominates (under the ``(w, eid)`` total order) every live edge
sharing an endpoint with it.  All dominant edges are committed at once and
their neighbourhoods removed.  A locally dominant matching under a total
order is unique (see :mod:`repro.matching.greedy`), so LocalMax returns
the same mate array as LD-SEQ, LD-GPU, greedy and the Suitor variants
while sharing none of their code: it reads only the CSR arrays and
:meth:`~repro.graph.csr.CSRGraph.canonical_edge_ids`, and takes its
per-row maxima from :func:`segment_max` here rather than from the
sorted-row layout.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matching_weight
from segment_oracle import row_ids

_NEG_INF = -np.inf


def segment_max(
    values: np.ndarray, indptr: np.ndarray, fill: float | None = None
) -> np.ndarray:
    """Per-row max; empty rows get ``fill`` (``-inf`` for floats, the most
    negative representable value for integers, unless given)."""
    n = len(indptr) - 1
    if values.dtype.kind == "f":
        out = np.full(n, _NEG_INF if fill is None else fill,
                      dtype=values.dtype)
    else:
        default = np.iinfo(values.dtype).min
        out = np.full(n, default if fill is None else int(fill),
                      dtype=values.dtype)
    rows = np.flatnonzero(np.diff(indptr) > 0)
    if len(rows):
        out[rows] = np.maximum.reduceat(values, indptr[:-1][rows])
    return out


def local_max(graph: CSRGraph,
              max_iterations: int | None = None) -> MatchResult:
    """Run edge-centric LocalMax to a maximal matching."""
    n = graph.num_vertices
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    rid = row_ids(graph.indptr)
    # eids fit float64 exactly while n^2 < 2^53; the two-field
    # lexicographic max below uses a weight pass followed by an eid pass
    # among weight-maximal slots.
    eids = graph.canonical_edge_ids().astype(np.float64)
    iterations = 0
    rounds_edges: list[int] = []

    while max_iterations is None or iterations < max_iterations:
        live_slot = (mate[rid] == UNMATCHED) & \
            (mate[graph.indices] == UNMATCHED)
        if not np.any(live_slot):
            break
        w = np.where(live_slot, graph.weights, _NEG_INF)
        vmax_w = segment_max(w, graph.indptr)
        at_max = w == vmax_w[rid]
        e = np.where(at_max, eids, -1.0)
        vmax_e = segment_max(e, graph.indptr)

        # A slot (u -> v) is vertex-dominant at u if it attains u's best
        # (w, eid); the edge is committed when dominant at both endpoints.
        dom_here = at_max & (eids == vmax_e[rid])
        dom_other = (graph.weights == vmax_w[graph.indices]) & \
            (eids == vmax_e[graph.indices])
        winner = dom_here & dom_other & (rid < graph.indices) & live_slot

        us, vs = rid[winner], graph.indices[winner]
        rounds_edges.append(len(us))
        iterations += 1
        if len(us) == 0:
            break
        mate[us] = vs
        mate[vs] = us

    return MatchResult(
        mate=mate,
        weight=matching_weight(graph, mate),
        algorithm="local_max",
        iterations=iterations,
        stats={"matches_per_round": np.asarray(rounds_edges,
                                               dtype=np.int64)},
    )
