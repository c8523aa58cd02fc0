"""LD-SEQ — Algorithm 1: pointer-based locally dominant matching.

Each round has a *pointing* phase (every live vertex points at its heaviest
available neighbour) and a *matching* phase (mutually pointing pairs are
committed and their edges removed).  LD-GPU runs its rounds through the
same :class:`~repro.matching.pointer_index.PointerIndex` and
:class:`~repro.matching.pointer_index.MutualIndex`, so the two
implementations are arithmetically identical (the paper's Lemma III.1
as code reuse).

Tie-breaking
------------
``argmax_u w({v, u})`` needs a total order to guarantee progress: with tied
weights, cyclic pointing can livelock Algorithm 1.  We maximise the
lexicographic key ``(w(e), eid(e))`` where ``eid`` is the canonical
undirected edge id — identical from both endpoints — so the globally
maximal available edge is mutually chosen every round and each round
commits at least one edge.

Host work against modeled work
------------------------------
``PointerIndex`` points from cursors over the graph's memoised sorted
rows and ``MutualIndex`` re-checks only the pointers that changed:
amortized O(m) host work over a run.  The modeled quantities are the
paper's kernels — ``edges_scanned`` sums the frontier's degrees, and
SetMates sweeps every vertex — while ``stats["host_entries_scanned"]``
(with its pointing/matching breakdown) counts the entries the host
actually examined.
"""

from __future__ import annotations

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.graph.csr import CSRGraph
from repro.matching.pointer_index import (
    HOST_SCAN_COUNTER,
    HOST_SCAN_HELP,
    MutualIndex,
    PointerIndex,
)
from repro.matching.types import UNMATCHED, MatchResult
from repro.telemetry.spans import count

__all__ = [
    "ld_seq",
    "find_mutual_pairs",
    "next_frontier",
]


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


def next_frontier(
    holders: np.ndarray | None, mate: np.ndarray, pointer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The vertices that still hold a pointer, and the next round's
    frontier: those of them whose target was matched away.

    Both LD drivers call this after a round's matches are committed and
    the matched vertices' pointers cleared.  ``holders`` ascends and
    contains every vertex whose pointer is set (pointers are only ever
    set on a frontier, which is drawn from the holders), so a round
    costs O(holders) instead of O(n); the array only shrinks.  After a
    first round over every row, ``holders=None`` takes them from the
    whole ``pointer`` array.  Because a matched vertex's pointer is
    cleared, the frontier equals
    ``nonzero((mate == -1) & (pointer >= 0))`` filtered by the target's
    mate, and both returned arrays ascend.
    """
    if holders is None:
        holders = np.flatnonzero(pointer >= 0)
        target = pointer[holders]
    else:
        target = pointer[holders]
        keep = np.flatnonzero(target >= 0)
        holders, target = holders[keep], target[keep]
    return holders, holders[np.flatnonzero(mate[target] != UNMATCHED)]


def ld_seq(
    graph: CSRGraph,
    max_iterations: int | None = None,
    full_rescan: bool = False,
    collect_stats: bool = True,
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
        the paper measures in Fig. 8.  Either way the first round's
        frontier is ``None``, every row: it is pointed, matched and
        filtered on whole arrays, with no index gathers.
    """
    n = graph.num_vertices
    pointing, mutual = PointerIndex(graph), MutualIndex(n)
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)

    # Round 1 points every row (``None``) on whole arrays.
    frontier = holders = None
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
              algorithm="ld_seq")
        if collect_stats:
            edges_scanned.append(scanned)
            frontier_sizes.append(n if frontier is None else len(frontier))
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
            holders, frontier = next_frontier(holders, mate, pointer)

    weight = pointing.matched_weight(mate)
    stats = {}
    if collect_stats:
        stats = {
            "edges_scanned": np.asarray(edges_scanned, dtype=np.int64),
            "new_matches": np.asarray(new_matches, dtype=np.int64),
            "frontier_sizes": np.asarray(frontier_sizes, dtype=np.int64),
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
