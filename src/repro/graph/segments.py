"""Vectorised segment (per-CSR-row) primitives.

These are the NumPy analogues of the warp-level reductions in the paper's
pointing kernel (Algorithm 3): each CSR row is a "segment", and the pointing
phase is a masked lexicographic arg-max per segment.  Everything here is
allocation-lean and loop-free; the matching algorithms and the GPU simulator
both build on these.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "row_ids",
    "segment_argmax_lex",
    "gather_rows",
]

_NEG_INF = -np.inf


def row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row id for each adjacency slot: ``[0,0,1,2,2,2,...]``."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def _nonempty(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows with at least one element and their start offsets."""
    lengths = np.diff(indptr)
    rows = np.nonzero(lengths > 0)[0]
    return rows, indptr[:-1][rows]


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

    This implements the deterministic total order that makes the pointing
    phase livelock-free: the globally maximal available edge under
    ``(w, eid)`` is chosen by both of its endpoints in the same round.
    """
    n = len(indptr) - 1
    m = len(primary)
    out = np.full(n, -1, dtype=np.int64)
    rows, starts = _nonempty(indptr)
    if not len(rows):
        return out

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
    parent ``indices`` / ``weights`` arrays and ``sub_indptr`` delimits each
    requested row inside ``positions``.  This is the frontier-gather used by
    the optimised pointing kernel: only vertices whose pointer died are
    re-scanned, so per-iteration work matches the warp-edge traffic the
    paper measures in Fig. 8.
    """
    rows = np.asarray(rows, dtype=np.int64)
    k = len(rows)
    if k and rows[-1] - rows[0] == k - 1 and \
            (k == 1 or bool((np.diff(rows) == 1).all())):
        # Contiguous ascending range (e.g. the iteration-0 frontier
        # ``arange(n)``): the positions are one contiguous slice, so the
        # repeat-based O(m) construction below collapses to an arange.
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
