"""Matching validity, maximality and local-dominance checks.

These encode the paper's definitions (§II-A / Definition II.1) and back the
test suite's invariants, including Lemma II.2 (the LD algorithms emit
maximal locally dominant matchings) and Corollary II.1 (½-approximation).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.graph.csr import CSRGraph
from repro.matching.types import UNMATCHED, MatchResult

__all__ = [
    "is_valid_matching",
    "is_maximal_matching",
    "matching_weight",
    "matched_vertex_weight",
    "matched_pairs_exist_in_graph",
    "verify_result",
]


def is_valid_matching(graph: CSRGraph, mate: np.ndarray) -> bool:
    """``mate`` is an involution whose pairs are edges of ``graph``."""
    if len(mate) != graph.num_vertices:
        return False
    matched = np.nonzero(mate != UNMATCHED)[0]
    if len(matched) == 0:
        return True
    partners = mate[matched]
    if partners.min() < 0 or partners.max() >= graph.num_vertices:
        return False
    if not np.array_equal(mate[partners], matched):  # involution
        return False
    if np.any(partners == matched):  # no self-matching
        return False
    return matched_pairs_exist_in_graph(graph, mate)


def matched_pairs_exist_in_graph(graph: CSRGraph, mate: np.ndarray) -> bool:
    """Every matched pair must be an actual edge."""
    rid = graph._row_ids()
    # Directed slot (u -> v) realises the pair iff mate[u] == v.
    realised = np.zeros(graph.num_vertices, dtype=bool)
    hit = mate[rid] == graph.indices
    realised[rid[hit]] = True
    want = mate != UNMATCHED
    return bool(np.all(realised[want]))


def is_maximal_matching(graph: CSRGraph, mate: np.ndarray) -> bool:
    """No edge can be added: every edge has a matched endpoint."""
    rid = graph._row_ids()
    both_free = (mate[rid] == UNMATCHED) & (mate[graph.indices] == UNMATCHED)
    return not bool(np.any(both_free))


def matching_weight(graph: CSRGraph, mate: np.ndarray) -> float:
    """Sum of matched edge weights (each edge once)."""
    rid = graph._row_ids()
    hit = (mate[rid] == graph.indices) & (rid < graph.indices)
    return float(graph.weights[hit].sum())


def matched_vertex_weight(mate: np.ndarray, mw: np.ndarray) -> float:
    """:func:`matching_weight` in O(n) from per-vertex weights.

    ``mw[v]`` must hold the weight of matched vertex ``v``'s entry for
    its mate in ``v``'s own row (any value where ``v`` is unmatched).
    The sum runs over the same elements in the same order as
    :func:`matching_weight` — each matched edge at its lower endpoint,
    in ascending order of that endpoint — so the two are bit-equal.
    """
    # ``compress`` gathers the same elements in the same order as a
    # boolean index, without materialising the selected indices first.
    return float(np.compress(_vertex_ids(len(mate)) < mate, mw).sum())


@lru_cache(maxsize=8)
def _vertex_ids(n: int) -> np.ndarray:
    """A shared read-only ``arange(n)``: allocating a fresh one per call
    showed in an incremental-LD batch's latency."""
    ids = np.arange(n)
    ids.setflags(write=False)
    return ids


def verify_result(graph: CSRGraph, result: MatchResult,
                  require_maximal: bool = True) -> None:
    """Assert-style verification used throughout tests and the harness.

    Raises ``AssertionError`` with a diagnostic message on any violation:
    matching validity, maximality (optional), and weight consistency.
    """
    assert is_valid_matching(graph, result.mate), (
        f"{result.algorithm}: mate array is not a valid matching"
    )
    if require_maximal:
        assert is_maximal_matching(graph, result.mate), (
            f"{result.algorithm}: matching is not maximal"
        )
    w = matching_weight(graph, result.mate)
    assert np.isclose(w, result.weight, rtol=1e-9, atol=1e-9), (
        f"{result.algorithm}: reported weight {result.weight} != "
        f"recomputed {w}"
    )
