"""LD-SEQ — Algorithm 1: pointer-based locally dominant matching.

Each round has a *pointing* phase (every live vertex points at its heaviest
available neighbour) and a *matching* phase (mutually pointing pairs are
committed and their edges removed).  LD-GPU runs its rounds through the
same :func:`pointing_pair`, so the two implementations are
arithmetically identical (the paper's Lemma III.1 as code reuse).

Tie-breaking
------------
``argmax_u w({v, u})`` needs a total order to guarantee progress: with tied
weights, cyclic pointing can livelock Algorithm 1.  We maximise the
lexicographic key ``(w(e), eid(e))`` where ``eid`` is the canonical
undirected edge id — identical from both endpoints — so the globally
maximal available edge is mutually chosen every round and each round
commits at least one edge.

Pointing engines
----------------
``engine="index"`` (the default) drives both phases through
:class:`~repro.matching.pointer_index.PointerIndex` (cursors over the
graph's memoised sorted rows) and
:class:`~repro.matching.pointer_index.MutualIndex` (pointer-delta mutual
checks), amortized O(m) host work over a run.  ``engine="segment"`` is
the reference oracle tests and the ``pointing`` bench suite compare it
with: :func:`compute_pointers` re-scans each frontier vertex's whole
adjacency every round and :func:`find_mutual_pairs` re-probes every
pointer, mirroring the modeled kernels.  Both give bit-identical
``mate``/``weight``/``edges_scanned``; only host work differs.
"""

from __future__ import annotations

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.graph.csr import CSRGraph
from repro.graph.segments import gather_rows, row_ids, segment_argmax_lex
from repro.matching.pointer_index import (
    HOST_SCAN_COUNTER,
    HOST_SCAN_HELP,
    MutualIndex,
    PointerIndex,
)
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matched_vertex_weight
from repro.telemetry.spans import count

__all__ = ["ld_seq", "compute_pointers", "find_mutual_pairs"]

_NEG_INF = -np.inf


def compute_pointers(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    eids: np.ndarray,
    mate: np.ndarray,
    pointer: np.ndarray,
    frontier: np.ndarray,
    row_offset: int = 0,
) -> int:
    """Pointing phase for the vertices in ``frontier``.

    ``indptr`` may describe a *local* row range starting at global vertex id
    ``row_offset`` (how a device partition stores its rows); ``indices``,
    ``mate`` and ``pointer`` are always global.  ``frontier`` holds global
    ids within the local range.  Updates ``pointer`` in place and returns
    the number of adjacency entries scanned (the paper's warp-edge work).
    """
    if len(frontier) == 0:
        return 0
    local = frontier - row_offset
    sub_indptr, pos = gather_rows(indptr, local)
    nbrs = indices[pos]
    primary = np.where(mate[nbrs] == UNMATCHED, weights[pos], _NEG_INF)
    win = segment_argmax_lex(primary, eids[pos], sub_indptr)
    has = win >= 0
    pointer[frontier] = UNMATCHED
    pointer[frontier[has]] = nbrs[win[has]]
    return len(pos)


def find_mutual_pairs(
    pointer: np.ndarray, candidates: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Matching phase: mutually pointing pairs, each reported once.

    Returns ``(lo, hi)`` arrays of matched pairs with ``lo < hi``.
    ``candidates`` optionally restricts the scan to a vertex subset: any
    *new* mutual pair has at least one endpoint that re-pointed this round
    (two stale mutual pointers would have matched in the previous round),
    so passing the frontier finds every new pair while scanning only the
    re-pointed vertices.  Unrestricted, this is the full-scan oracle the
    :class:`~repro.matching.pointer_index.MutualIndex` delta engine is
    verified against; that engine keeps one report per pair without
    this sort-based dedup.
    """
    if candidates is None:
        candidates = np.nonzero(pointer >= 0)[0]
    else:
        candidates = candidates[pointer[candidates] >= 0]
    tgt = pointer[candidates]
    mutual = pointer[tgt] == candidates
    a, b = candidates[mutual], tgt[mutual]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    if len(lo) == 0:
        return lo, hi
    # A pair appears at most twice (once per endpoint); dedup on the
    # scalar key lo * n + hi — the same pairs in the same (lo, hi)
    # lexicographic order as a row-wise unique, without the structured
    # sort.  Exact for n^2 < 2^63, like the canonical edge ids.
    key = lo * np.int64(len(pointer)) + hi
    _, first = np.unique(key, return_index=True)
    return lo[first], hi[first]


class _RescanPointer:
    """Reference pointing phase with :class:`PointerIndex`'s surface:
    :func:`compute_pointers` over each frontier row, every round."""

    def __init__(self, graph: CSRGraph) -> None:
        self._graph = graph
        self._eids = graph.canonical_edge_ids()
        self.last_host_scanned = 0

    def point(self, mate: np.ndarray, pointer: np.ndarray,
              frontier: np.ndarray) -> int:
        g = self._graph
        self.last_host_scanned = compute_pointers(
            g.indptr, g.indices, g.weights, self._eids,
            mate, pointer, frontier)
        return self.last_host_scanned

    def matched_weights(self, mate: np.ndarray) -> np.ndarray:
        """Per vertex, its row entry's weight for its mate (0 where
        unmatched), by the O(m) row scan of
        :func:`~repro.matching.validate.matching_weight`."""
        g = self._graph
        rid = row_ids(g.indptr)
        hit = mate[rid] == g.indices
        mw = np.zeros(g.num_vertices)
        mw[rid[hit]] = g.weights[hit]
        return mw


class _RescanMutual:
    """Reference matching phase with :class:`MutualIndex`'s surface:
    the full :func:`find_mutual_pairs` sweep, ``n`` probes a round."""

    def __init__(self, num_vertices: int) -> None:
        self.last_host_scanned = num_vertices

    def find_pairs(self, pointer: np.ndarray, candidates=None):
        """Ignores ``candidates``: the reference re-probes every
        pointer, like the modeled SetMates kernel."""
        return find_mutual_pairs(pointer, None)


def pointing_pair(graph: CSRGraph, name: str):
    """The ``(pointing, mutual)`` pair that runs one run's two phases
    under engine ``name``: ``"index"`` or the ``"segment"`` reference."""
    if name == "index":
        return PointerIndex(graph), MutualIndex(graph.num_vertices)
    if name == "segment":
        return _RescanPointer(graph), _RescanMutual(graph.num_vertices)
    raise ValueError(f"unknown pointing engine {name!r}; "
                     "expected 'index' or 'segment'")


def ld_seq(
    graph: CSRGraph,
    max_iterations: int | None = None,
    full_rescan: bool = False,
    collect_stats: bool = True,
    engine: str = "index",
) -> MatchResult:
    """Run Algorithm 1 to completion.

    Parameters
    ----------
    max_iterations:
        Safety cap; ``None`` runs until the matching is maximal.
    full_rescan:
        If True, re-run the pointing phase over *all* live vertices every
        round (the literal Algorithm 1).  The default frontier optimisation
        re-scans only vertices whose pointer target was matched away, which
        is equivalent (availability only shrinks, so surviving pointers
        remain arg-maxima) and matches the per-iteration edge-traffic decay
        the paper measures in Fig. 8.
    engine:
        ``"index"`` or the ``"segment"`` reference (see the module
        docstring); only ``stats["host_entries_scanned"]`` and its
        per-phase breakdown depend on it.
    """
    pointing, mutual = pointing_pair(graph, engine)
    n = graph.num_vertices
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)

    frontier = np.arange(n, dtype=np.int64)
    edges_scanned: list[int] = []
    new_matches: list[int] = []
    frontier_sizes: list[int] = []
    host_pointing = 0
    host_matching = 0

    iterations = 0
    while max_iterations is None or iterations < max_iterations:
        scanned = pointing.point(mate, pointer, frontier)
        iter_host = pointing.last_host_scanned
        host_pointing += iter_host
        # Matching phase: every pointer change happens inside the
        # frontier, so it is an exhaustive candidate set.
        matched_lo, matched_hi = mutual.find_pairs(pointer, frontier)
        match_host = mutual.last_host_scanned
        host_matching += match_host
        count(HOST_SCAN_COUNTER, iter_host + match_host, HOST_SCAN_HELP,
              algorithm="ld_seq", engine=engine)
        if collect_stats:
            edges_scanned.append(scanned)
            frontier_sizes.append(len(frontier))
            new_matches.append(len(matched_lo))
        iterations += 1
        if len(matched_lo) == 0:
            break
        mate[matched_lo] = matched_hi
        mate[matched_hi] = matched_lo
        pointer[matched_lo] = UNMATCHED
        pointer[matched_hi] = UNMATCHED

        if full_rescan:
            frontier = np.nonzero(mate == UNMATCHED)[0]
        else:
            # Re-point exactly the vertices whose target was matched away.
            live = np.nonzero((mate == UNMATCHED) & (pointer >= 0))[0]
            frontier = live[mate[pointer[live]] != UNMATCHED]

    weight = matched_vertex_weight(mate, pointing.matched_weights(mate))
    stats = {}
    if collect_stats:
        stats = {
            "edges_scanned": np.asarray(edges_scanned, dtype=np.int64),
            "new_matches": np.asarray(new_matches, dtype=np.int64),
            "frontier_sizes": np.asarray(frontier_sizes, dtype=np.int64),
            "pointing_engine": engine,
            "host_entries_scanned": host_pointing + host_matching,
            "host_entries_scanned_pointing": host_pointing,
            "host_entries_scanned_matching": host_matching,
        }
    return MatchResult(
        mate=mate,
        weight=weight,
        algorithm="ld_seq" + ("(full)" if full_rescan else ""),
        iterations=iterations,
        stats=stats,
    )


register(AlgorithmSpec(
    name="ld_seq",
    fn=ld_seq,
    summary="Algorithm 1 — sequential locally dominant matching",
    approx_ratio="1/2",
))
