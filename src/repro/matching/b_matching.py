"""b-matching via b-Suitor — the Suitor lineage's capacity generalisation.

A *b-matching* lets vertex ``v`` take up to ``b(v)`` partners; it is the
workhorse behind matching-based load balancing, graph sparsification and
the multi-objective AMG coarsening the paper cites ([11]).  The b-Suitor
algorithm (Khan, Pothen, Halappanavar et al.) generalises Suitor's
proposal mechanism: every vertex keeps standing proposals to its heaviest
eligible neighbours; a proposal is eligible when it beats the *weakest*
accepted proposal at the target; displaced proposers re-propose.  Under a
total order it produces exactly the greedy ½-approximate b-matching —
the same relationship the 1-matching algorithms share, and the invariant
the tests assert.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["BMatchResult", "b_suitor", "greedy_b_matching",
           "is_valid_b_matching"]


@dataclass
class BMatchResult:
    """Outcome of a b-matching run.

    Attributes
    ----------
    partners:
        list of ``int64`` arrays; ``partners[v]`` holds v's matched
        partners (sorted ascending).
    weight:
        total weight of the matched edge set (each edge once).
    b:
        the per-vertex capacity array the run used.
    """

    partners: list[np.ndarray]
    weight: float
    b: np.ndarray
    algorithm: str
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def num_matched_edges(self) -> int:
        return sum(len(p) for p in self.partners) // 2

    def edge_set(self) -> set[tuple[int, int]]:
        """Matched edges as canonical (lo, hi) pairs."""
        out = set()
        for v, ps in enumerate(self.partners):
            for u in ps.tolist():
                out.add((min(v, u), max(v, u)))
        return out


def _normalise_b(graph: CSRGraph, b) -> np.ndarray:
    n = graph.num_vertices
    if np.isscalar(b):
        if b < 1:
            raise ValueError("b must be >= 1")
        return np.full(n, int(b), dtype=np.int64)
    arr = np.asarray(b, dtype=np.int64)
    if len(arr) != n:
        raise ValueError("per-vertex b must have length |V|")
    if len(arr) and arr.min() < 0:
        raise ValueError("b values must be non-negative")
    return arr


def b_suitor(graph: CSRGraph, b: int | np.ndarray = 2) -> BMatchResult:
    """Sequential b-Suitor with the shared ``(w, eid)`` total order.

    ``b`` is a scalar capacity or a per-vertex array.  Runs in
    ``O(m log d_max)`` with per-vertex acceptance heaps and monotone
    adjacency pointers (each vertex proposes to each neighbour at most
    once).
    """
    n = graph.num_vertices
    bs = _normalise_b(graph, b)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    eids = graph.canonical_edge_ids()

    # Adjacency of each vertex sorted by decreasing (w, eid): the
    # eligibility threshold only rises, so a monotone pointer suffices.
    order = graph.sorted_row_order()

    # heaps[v]: accepted proposals as (w, eid, proposer) min-heaps.
    heaps: list[list[tuple[float, int, int]]] = [[] for _ in range(n)]
    ptr = indptr[:-1].astype(np.int64).copy()
    needed = bs.copy()
    proposals = 0

    stack = [v for v in range(n) if needed[v] > 0]
    while stack:
        u = stack.pop()
        while needed[u] > 0 and ptr[u] < indptr[u + 1]:
            k = int(order[ptr[u]])
            v = int(indices[k])
            w, e = float(weights[k]), int(eids[k])
            ptr[u] += 1
            hv = heaps[v]
            cap = int(bs[v])
            if cap == 0:
                continue
            if len(hv) == cap and (w, e) <= (hv[0][0], hv[0][1]):
                continue  # cannot beat v's weakest standing proposal
            heapq.heappush(hv, (w, e, u))
            proposals += 1
            needed[u] -= 1
            if len(hv) > cap:
                _, _, x = heapq.heappop(hv)
                needed[x] += 1
                stack.append(x)

    # At termination the proposal relation is symmetric under a total
    # order; the b-matching is exactly the standing proposals.
    partners: list[list[int]] = [[] for _ in range(n)]
    weight = 0.0
    seen: set[tuple[int, int]] = set()
    asymmetric = 0
    suitor_sets = [
        {u for _, _, u in hv} for hv in heaps
    ]
    for v in range(n):
        for w_, e_, u in heaps[v]:
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            if v not in suitor_sets[u]:
                asymmetric += 1
                continue
            seen.add(key)
            partners[u].append(v)
            partners[v].append(u)
            weight += w_

    return BMatchResult(
        partners=[np.array(sorted(p), dtype=np.int64) for p in partners],
        weight=weight,
        b=bs,
        algorithm="b_suitor",
        stats={"proposals": proposals, "asymmetric": asymmetric},
    )


def greedy_b_matching(graph: CSRGraph,
                      b: int | np.ndarray = 2) -> BMatchResult:
    """Global-sort greedy b-matching (the ½-approximation oracle)."""
    n = graph.num_vertices
    bs = _normalise_b(graph, b)
    u, v, w = graph.edge_array()
    eid = u * np.int64(max(n, 1)) + v
    order = np.lexsort((-eid, -w))
    capacity = bs.copy()
    partners: list[list[int]] = [[] for _ in range(n)]
    weight = 0.0
    for k in order:
        a, c = int(u[k]), int(v[k])
        if capacity[a] > 0 and capacity[c] > 0:
            capacity[a] -= 1
            capacity[c] -= 1
            partners[a].append(c)
            partners[c].append(a)
            weight += float(w[k])
    return BMatchResult(
        partners=[np.array(sorted(p), dtype=np.int64) for p in partners],
        weight=weight,
        b=bs,
        algorithm="greedy_b",
    )


def is_valid_b_matching(graph: CSRGraph, result: BMatchResult) -> bool:
    """Check capacities, symmetry, simplicity and edge existence."""
    n = graph.num_vertices
    if len(result.partners) != n:
        return False
    for v, ps in enumerate(result.partners):
        if len(ps) > result.b[v]:
            return False
        if len(ps) != len(np.unique(ps)):
            return False  # duplicate partner
        for u in ps.tolist():
            if u == v or not graph.has_edge(v, u):
                return False
            if v not in result.partners[u]:
                return False  # asymmetric
    # weight consistency
    total = sum(graph.edge_weight(a, b_) for a, b_ in result.edge_set())
    return bool(np.isclose(total, result.weight, rtol=1e-9, atol=1e-9))
