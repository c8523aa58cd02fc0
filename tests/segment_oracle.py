"""The segment re-scan: the reference the pointing engine is held to.

The paper's pointing kernel (Algorithm 3) is a masked lexicographic
arg-max over each CSR row.  :func:`compute_pointers` is that kernel
written literally in NumPy: it re-gathers every frontier vertex's whole
adjacency and re-runs the arg-max (:func:`segment_argmax_lex`) each
round, O(m x rounds) host work.  :func:`ld_seq_segment` drives
Algorithm 1 with it and with the full-scan mutual check
(:func:`~repro.matching.ld_seq.find_mutual_pairs` over every pointer),
so ``ld_seq``/``ld_gpu`` on sorted-row cursors must reproduce its
``mate``, weight bits, rounds and modeled series exactly.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.matching.ld_seq import find_mutual_pairs
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matching_weight

__all__ = [
    "row_ids",
    "segment_argmax_lex",
    "gather_rows",
    "compute_pointers",
    "segment_rounds",
    "ld_seq_segment",
]

_NEG_INF = -np.inf


def row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row id for each adjacency slot: ``[0,0,1,2,2,2,...]``."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def segment_argmax_lex(
    primary: np.ndarray,
    secondary: np.ndarray,
    indptr: np.ndarray,
) -> np.ndarray:
    """Per-row arg-max under the lexicographic key ``(primary, secondary)``.

    ``primary`` is a float array where masked-out entries are ``-inf``;
    ``secondary`` is an integer tie-break key (e.g. canonical edge ids).
    Returns the *global position* of the winner per row, or -1 for rows
    whose every entry is masked.
    """
    n = len(indptr) - 1
    m = len(primary)
    out = np.full(n, -1, dtype=np.int64)
    rows = np.flatnonzero(np.diff(indptr) > 0)
    if not len(rows):
        return out
    starts = indptr[:-1][rows]

    seg_p = np.maximum.reduceat(primary, starts)
    rmax = np.full(n, _NEG_INF)
    rmax[rows] = seg_p
    rid = row_ids(indptr)
    at_pmax = primary == rmax[rid]

    sec_masked = np.where(at_pmax, secondary, np.int64(-1))
    seg_s = np.maximum.reduceat(sec_masked, starts)
    smax = np.full(n, -1, dtype=np.int64)
    smax[rows] = seg_s

    winner = at_pmax & (secondary == smax[rid])
    pos = np.where(winner, np.arange(m, dtype=np.int64), np.int64(m))
    first = np.minimum.reduceat(pos, starts)
    valid = seg_p > _NEG_INF
    out[rows[valid]] = first[valid]
    return out


def gather_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of all adjacency slots belonging to ``rows``.

    Returns ``(sub_indptr, positions)`` where ``positions`` indexes the
    parent ``indices`` / ``weights`` arrays and ``sub_indptr`` delimits
    each requested row inside ``positions``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    k = len(rows)
    if k and rows[-1] - rows[0] == k - 1 and \
            (k == 1 or bool((np.diff(rows) == 1).all())):
        # Contiguous ascending range (e.g. a first round's ``arange(n)``):
        # the positions are one contiguous slice.
        r0 = int(rows[0])
        sub_indptr = indptr[r0 : r0 + k + 1] - indptr[r0]
        positions = np.arange(int(indptr[r0]), int(indptr[r0 + k]),
                              dtype=np.int64)
        return sub_indptr, positions
    lengths = indptr[rows + 1] - indptr[rows]
    sub_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=sub_indptr[1:])
    total = int(sub_indptr[-1])
    if total == 0:
        return sub_indptr, np.empty(0, dtype=np.int64)
    positions = np.arange(total, dtype=np.int64)
    positions += np.repeat(indptr[rows] - sub_indptr[:-1], lengths)
    return sub_indptr, positions


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

    ``indptr`` may describe a *local* row range starting at global vertex
    id ``row_offset`` (how a device partition stores its rows);
    ``indices``, ``mate`` and ``pointer`` are always global.  ``frontier``
    holds global ids within the local range.  Updates ``pointer`` in place
    and returns the number of adjacency entries scanned (the paper's
    warp-edge work).
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


def segment_rounds(g: CSRGraph, full_rescan: bool = False):
    """Algorithm 1 round by round with full re-scans.

    Yields ``(mate, pointer, frontier, scanned, lo, hi)`` after each
    round's pointing phase (:func:`compute_pointers` over ``frontier``)
    and its full-scan mutual check, before the pairs ``(lo, hi)`` are
    committed; the run ends after the round that finds none.  The first
    frontier is every vertex; later ones are the vertices whose target
    was matched away, written over every vertex (or every unmatched
    vertex with ``full_rescan``).
    """
    n = g.num_vertices
    eids = g.canonical_edge_ids()
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64)
    while True:
        scanned = compute_pointers(g.indptr, g.indices, g.weights, eids,
                                   mate, pointer, frontier)
        lo, hi = find_mutual_pairs(pointer, None)
        yield mate, pointer, frontier, scanned, lo, hi
        if len(lo) == 0:
            return
        mate[lo] = hi
        mate[hi] = lo
        pointer[lo] = UNMATCHED
        pointer[hi] = UNMATCHED
        if full_rescan:
            frontier = np.flatnonzero(mate == UNMATCHED)
        else:
            live = np.flatnonzero((mate == UNMATCHED) & (pointer >= 0))
            frontier = live[mate[pointer[live]] != UNMATCHED]


def ld_seq_segment(g: CSRGraph, full_rescan: bool = False) -> MatchResult:
    """:func:`~repro.matching.ld_seq.ld_seq` on :func:`segment_rounds`.

    Same result fields and ``stats`` series; the host counts are the
    re-scan's own: every frontier entry each pointing round and ``n``
    pointer probes each matching round.
    """
    n = g.num_vertices
    scanned, frontier_sizes, new_matches = [], [], []
    for mate, _, frontier, entries, lo, _ in segment_rounds(g, full_rescan):
        scanned.append(entries)
        frontier_sizes.append(len(frontier))
        new_matches.append(len(lo))
    pointing, matching = sum(scanned), n * len(scanned)
    return MatchResult(
        mate=mate,
        weight=matching_weight(g, mate),
        algorithm="ld_seq" + ("(full)" if full_rescan else ""),
        iterations=len(scanned),
        stats={
            "edges_scanned": np.asarray(scanned, dtype=np.int64),
            "new_matches": np.asarray(new_matches, dtype=np.int64),
            "frontier_sizes": np.asarray(frontier_sizes, dtype=np.int64),
            "host_entries_scanned": pointing + matching,
            "host_entries_scanned_pointing": pointing,
            "host_entries_scanned_matching": matching,
        },
    )
