"""Sorted-adjacency pointer index — amortized O(m) pointing.

The pointing phase is the hot path of the whole reproduction.  The
paper's kernel (Algorithm 3) re-scans every frontier vertex's full
adjacency with a masked lexicographic arg-max each round, O(m × rounds)
work, even though availability only ever shrinks — the exact
monotonicity the paper exploits in §III-B ("logical control of task
distribution") and that Suitor-style algorithms (Birn et al.,
*Efficient Parallel and External Matching*) turn into amortized-linear
total work.

:class:`PointerIndex` serves that arg-max from cursors.  Each graph's
rows are sorted once, descending by the shared lexicographic key
``(w, eid)`` (:meth:`~repro.graph.csr.CSRGraph.sorted_row_order`,
memoised on the graph together with the neighbour id of every sorted
slot, :meth:`~repro.graph.csr.CSRGraph.sorted_neighbors`); each run
slices its rows of that layout (optionally a row range, keyed by its
row offset), gathers nothing, and keeps its own per-vertex cursors
into it.  Pointing then just advances each frontier vertex's cursor
past neighbours whose ``mate`` is set and takes the first live entry.
Because the key is a strict total order within a row (canonical edge
ids are distinct across a vertex's neighbours), the first live entry
*is* the row's arg-max — bit-identical to the re-scan by construction
(the same total order as Lemma III.1's tie-break).
Cursors only ever move forward and each advance permanently retires one
adjacency entry, so the host arithmetic over an entire run is O(m) on
top of the graph's one O(m log m) sort, instead of O(m × rounds).

Cursor advances are vectorised as repeated whole-frontier NumPy steps
over a shrinking working set — there is no per-vertex Python loop.
The walk itself is :func:`advance_cursors`, which the round-synchronous
Suitor baselines (:mod:`repro.matching.suitor`) share.  A run's first
round passes ``frontier=None`` ("every row"): while ``mate`` is still
empty every cursor rests on its row's live head, so each non-empty row
points at its head on whole arrays, with no walk and no index gather.

:class:`MutualIndex` applies the same delta discipline to the
*matching* (SetMates) phase: the full-scan oracle
(:func:`~repro.matching.ld_seq.find_mutual_pairs` with no candidate
restriction) re-probes every vertex's pointer each round, but a pair
can only *become* mutual in the round one of its endpoints re-points —
so re-examining exactly the vertices whose pointer value changed since
the previous round finds the identical pair set (the frontier-delta
repair idea of GPU batch-dynamic matching, arXiv:2401.17018).  Pointer
values within a row only ever walk down the sorted order, so the total
number of changes — and hence the matching phase's host work over a
run — is amortised O(m), matching the pointing phase.

The *modeled* quantities are unchanged by construction:
:meth:`PointerIndex.point` returns the sum of frontier degrees (what
the paper's warp kernels would scan, Fig. 8's ``edges_scanned``) and
the matching kernel keeps charging its full-vertex sweep, while the
actual host entries examined by both phases accumulate separately in
:attr:`PointerIndex.host_entries_scanned` /
:attr:`MutualIndex.host_entries_scanned` and are exported by the
algorithms as the ``repro_host_entries_scanned_total`` counter so
modeled vs. host work can be compared (``repro-matching stats``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.matching.types import UNMATCHED
from repro.matching.validate import _vertex_ids

__all__ = [
    "HOST_SCAN_COUNTER",
    "HOST_SCAN_HELP",
    "PointerIndex",
    "MutualIndex",
    "advance_cursors",
]

#: Telemetry counter for actual host-side adjacency entries examined —
#: the quantity the cursors shrink while ``edges_scanned`` (the
#: modeled warp-edge work) stays put.
HOST_SCAN_COUNTER = "repro_host_entries_scanned_total"
HOST_SCAN_HELP = (
    "Entries actually examined by the host-side pointing and matching "
    "engines (modeled edges_scanned is the sum of frontier degrees; "
    "the modeled matching kernel sweeps every owned vertex)."
)


def advance_cursors(
    cur: np.ndarray,
    end: np.ndarray,
    dead: Callable[[np.ndarray], np.ndarray],
) -> int:
    """Advance every cursor to its first live slot, in place.

    ``cur[i]``/``end[i]`` bound one row of a sorted layout, and
    ``dead(slots)`` flags the slots whose entry can never be chosen
    again.  On return each cursor rests on its row's first live slot, or
    on ``end`` when the row is exhausted.  The walk is vectorised as
    whole-frontier steps: ``work`` holds the cursors whose current entry
    is dead, and each pass advances all of them one slot and re-checks.
    The working set only shrinks, and every pass retires at least one
    entry per member, so a caller whose dead entries stay dead pays
    amortised O(entries) over all its calls.  Returns the number of
    entries examined.
    """
    work = np.nonzero(cur < end)[0]
    host = len(work)
    work = work[dead(cur[work])]
    while len(work):
        cur[work] += 1
        work = work[cur[work] < end[work]]
        host += len(work)
        work = work[dead(cur[work])]
    return int(host)


class PointerIndex:
    """Per-run cursors over one CSR row range of the graph's sorted rows.

    Parameters
    ----------
    graph:
        The graph; its memoised :meth:`~repro.graph.csr.CSRGraph.
        sorted_row_order` and :meth:`~repro.graph.csr.CSRGraph.
        sorted_neighbors` supply the ``(w, eid)``-descending row layout
        (the first index over a graph fills that memo — the one sort —
        and every later one only slices it).
    start / stop:
        Global vertex range ``[start, stop)`` served (e.g. one device
        partition); ``stop=None`` means every row.  Local row 0 is
        global vertex ``start`` (:attr:`row_offset`).

    Notes
    -----
    The index snapshots nothing about ``mate``: entries are skipped
    lazily during :meth:`point`, and because matched vertices never
    become unmatched within a run, a skipped entry never needs to be
    revisited.  One index must therefore only be used with a single,
    monotonically-filling ``mate`` array (one run).
    """

    def __init__(
        self,
        graph: CSRGraph,
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        if stop is None:
            stop = graph.num_vertices
        lo, hi = int(graph.indptr[start]), int(graph.indptr[stop])
        #: Local row offsets of the served range.
        self.indptr = graph.indptr[start:stop + 1] - lo
        self.row_offset = int(start)
        #: Graph position (into ``indices``/``weights``) per sorted slot.
        self._slots = graph.sorted_row_order()[lo:hi]
        self._weights = graph.weights
        #: Neighbour id per sorted adjacency slot (a read-only view).
        self.sorted_indices = graph.sorted_neighbors()[lo:hi]
        #: Per-local-vertex cursor into the sorted layout.
        self.cursor = self.indptr[:-1].copy()
        #: Actual adjacency entries examined across all ``point`` calls.
        self.host_entries_scanned = 0
        #: Entries examined by the most recent ``point`` call.
        self.last_host_scanned = 0

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    def point(
        self,
        mate: np.ndarray,
        pointer: np.ndarray,
        frontier: np.ndarray | None,
    ) -> int:
        """Pointing phase for ``frontier``.

        Advances each frontier vertex's cursor past neighbours whose
        ``mate`` is set and points it at the first live entry (or
        ``UNMATCHED`` when its row is exhausted).  Updates ``pointer``
        in place and returns the *modeled* scan count — the sum of
        frontier degrees, what the paper's re-scanning kernel reads —
        for the ``edges_scanned`` series.

        ``frontier=None`` means every row of the index.  While ``mate``
        is still empty (a run's first round) that points each non-empty
        row at its head on whole arrays, with no walk.
        """
        if frontier is None:
            stop = self.row_offset + self.num_rows
            if mate.max(initial=UNMATCHED) == UNMATCHED:
                # Nothing is matched yet and cursors only move past
                # matched entries, so each rests on its row's head: the
                # live entry a walk would find after examining it once.
                has = np.flatnonzero(self.cursor < self.indptr[1:])
                rows = pointer[self.row_offset:stop]
                rows[:] = UNMATCHED
                rows[has] = self.sorted_indices[self.cursor[has]]
                self.last_host_scanned = len(has)
                self.host_entries_scanned += len(has)
                return int(self.indptr[-1])
            frontier = np.arange(self.row_offset, stop)
        local = frontier - self.row_offset
        cur = self.cursor[local]
        end = self.indptr[local + 1]
        nbrs = self.sorted_indices
        # The memo's neighbour ids are int32: NumPy indexes ``mate``
        # faster with them widened first than it casts an int32 index.
        host = advance_cursors(
            cur, end,
            lambda slots: mate[nbrs[slots].astype(np.intp)] != UNMATCHED)
        self.cursor[local] = cur
        has = np.flatnonzero(cur < end)
        pointer[frontier] = UNMATCHED
        pointer[frontier[has]] = nbrs[cur[has]]
        self.last_host_scanned = host
        self.host_entries_scanned += host
        return int((end - self.indptr[local]).sum())

    def matched_weight(self, mate: np.ndarray) -> float:
        """Weight of the matched edges whose lower endpoint is one of
        this index's rows, bit-equal to
        :func:`~repro.matching.validate.matching_weight` over the whole
        graph when the index serves every row.

        A matched vertex's cursor rests on its mate: the pointing phase
        left it on the entry it pointed at, and a matched vertex is
        never pointed again.  So only the lower endpoints' cursor
        entries are gathered, and they are summed in ascending vertex
        order, the elements and order of
        :func:`~repro.matching.validate.matched_vertex_weight`.
        """
        stop = self.row_offset + self.num_rows
        lower = np.flatnonzero(_vertex_ids(stop)[self.row_offset:]
                               < mate[self.row_offset:stop])
        return float(self._weights[
            self._slots[self.cursor[lower]].astype(np.intp)].sum())


class MutualIndex:
    """Frontier-delta mutual-pointer check — amortised O(m) matching.

    Tracks the last-seen pointer value of every vertex (``prev``) and
    narrows each round's mutual check to the vertices whose pointer
    actually *changed*.  That restriction is exact: a pair ``{u, v}``
    becomes mutual precisely in the round of the later of its two
    pointer writes, and the endpoint written that round is — by
    definition — in the changed set, so the pair is discovered in the
    same round, and as the same ``(lo, hi)`` rows, as the full-scan
    oracle (:func:`~repro.matching.ld_seq.find_mutual_pairs` over all
    vertices).  Within a run a vertex's pointer only walks down its
    row's ``(w, eid)``-sorted order before going ``UNMATCHED``, so
    total changes — and hence total host probes — are bounded by
    ``m + 2n`` however many rounds the run takes.

    Like :class:`PointerIndex`, one instance serves exactly one run's
    monotonically-filling ``mate``/``pointer`` evolution; the caller
    passes every round's re-pointed set (a superset of the changed
    vertices) as ``candidates``.
    """

    def __init__(self, num_vertices: int) -> None:
        #: Last pointer value examined per vertex.
        self.prev = np.full(num_vertices, UNMATCHED, dtype=np.int64)
        #: Actual entries probed across all ``find_pairs`` calls.
        self.host_entries_scanned = 0
        #: Entries probed by the most recent ``find_pairs`` call.
        self.last_host_scanned = 0

    def find_pairs(
        self,
        pointer: np.ndarray,
        candidates: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mutually pointing pairs, drop-in for the full-scan oracle.

        ``candidates`` must contain every vertex whose pointer may have
        changed since the previous call (the round's pointing
        frontier), each once; ``None`` diffs the whole array.  Returns
        ``(lo, hi)`` pair arrays identical to
        ``find_mutual_pairs(pointer, None)``, in O(candidates) when the
        candidates ascend and every pair is reported from its lower
        endpoint (a sort of the pairs restores the order otherwise).
        """
        # Selections go through index arrays: NumPy's boolean-mask
        # indexing is several times slower on the irregular masks here.
        if candidates is None:
            changed = np.flatnonzero(pointer != self.prev)
            target = pointer[changed]
        else:
            target = pointer[candidates]
            moved = np.flatnonzero(target != self.prev[candidates])
            changed, target = candidates[moved], target[moved]
        live = np.flatnonzero(target >= 0)
        a, b = changed[live], target[live]
        # A pair whose endpoints both changed is reported by each: keep
        # the report from its lower endpoint.  A partner whose pointer
        # still reads its previous value did not change, so its pair
        # has this report alone.
        pair = np.flatnonzero(
            (pointer[b] == a) & ((a < b) | (self.prev[b] == a)))
        a, b = a[pair], b[pair]
        self.prev[changed] = target
        self.last_host_scanned = int(len(changed))
        self.host_entries_scanned += self.last_host_scanned
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # The oracle lists pairs by ascending ``lo``.  Reports from
        # ascending candidates already are, unless a pair was reported
        # by its upper endpoint alone; pairs share no vertex, so any
        # sort of the ``lo`` values restores that order.
        if len(lo) > 1 and np.any(lo[1:] < lo[:-1]):
            order = np.argsort(lo)
            lo, hi = lo[order], hi[order]
        return lo, hi
