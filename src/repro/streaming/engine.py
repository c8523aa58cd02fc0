"""Batch-dynamic LD matching engines: incremental repair vs recompute.

Why local repair can be exact
-----------------------------
Under the shared ``(weight, eid)`` lexicographic total order, the
locally dominant matching :func:`~repro.matching.ld_seq.ld_seq`
converges to is the *unique stable matching* of the graph: no edge has
a key greater than both of its endpoints' matched keys (a "blocking
edge").  Uniqueness is what makes an incremental engine testable to
the byte — any procedure that ends with no blocking edge *must* land
on the same mate array as a from-scratch run on the mutated graph.

:class:`IncrementalLD` exploits that.  A batch is applied to a
base+overlay graph (:class:`~repro.graph.overlay.OverlayGraph`) in one
all-or-nothing step: the overlay checks every op against the live
graph first, so a rejected batch leaves graph, rows and matching as
they were.  The overlay hands back each touched edge's old and new
weight; then:

1. every matched edge incident to a *changed* vertex (an endpoint of
   any op) is released — after this, every blocking edge of the new
   graph has at least one free endpoint, because an all-matched
   blocking pair would have had to be blocking before the batch too;
2. only the changed vertices' sorted rows are patched, in place: their
   rows (sorted descending by ``(w, eid)``, the PointerIndex layout,
   in one pool shared by every vertex) lose each touched edge's old
   entry and gain its new one, each located by bisecting its row for
   its key.  The entries between two changes keep their order, so they
   move as whole runs, and a run already at its new position does not
   move — per-batch work is the changed entries plus at most one move
   of the changed rows; everyone else keeps their row untouched;
3. pointing/matching rounds run from the affected frontier to the
   fixed point.  Pointing scans every free frontier vertex's sorted
   row at once for its first *dethronable* neighbour — free, or
   matched through a smaller key than the connecting edge.  Matching
   first commits every mutual pair of free vertices in one vectorised
   step, as LD's matching phase does (this is exactly what committing
   them in key order would do; the proof is at the commit), then
   commits the remaining proposals in descending key order (the
   globally best proposal always commits, so every round makes
   progress), freeing dethroned partners into the next frontier.  When
   no free vertex can point anywhere, no blocking edge is left.

Host work is counted exactly as in
:mod:`~repro.matching.pointer_index`: every adjacency entry examined
increments ``host_entries_scanned``, so per-batch cost is measurably
proportional to the affected region instead of O(m).

:class:`RecomputeLD` is the oracle: it applies the same batch to the
same overlay, snapshots to CSR, and reruns ``ld_seq`` from scratch —
what a non-incremental system would pay on every batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.overlay import OverlayGraph
from repro.matching.ld_seq import ld_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import matched_vertex_weight
from repro.streaming.events import UpdateBatch
from repro.telemetry.spans import count

__all__ = [
    "STREAM_ENGINES",
    "BatchResult",
    "StreamingEngine",
    "IncrementalLD",
    "RecomputeLD",
    "make_engine",
]

#: Engine kinds accepted by :func:`make_engine` and ``--engine``.
STREAM_ENGINES = ("incremental", "recompute")

STREAM_BATCH_COUNTER = "repro_stream_batches_total"
STREAM_REPAIR_COUNTER = "repro_stream_repairs_total"
STREAM_AFFECTED_COUNTER = "repro_stream_affected_vertices_total"
_COUNTER_HELP = {
    STREAM_BATCH_COUNTER: "Update batches applied by streaming engines.",
    STREAM_REPAIR_COUNTER:
        "Matched edges (re)committed while repairing after a batch.",
    STREAM_AFFECTED_COUNTER:
        "Vertices whose matching state was touched by batch repairs.",
}

_NEG_INF = -np.inf
# Pointing scans every frontier row's first 8 entries, then 4x more per
# pass, until each row has a hit or is exhausted.
_FIRST_CHUNK = 8
_CHUNK_GROWTH = 4
# The row pool keeps 1/4 of its live capacity free as tail room for
# rows that outgrow their slot.
_POOL_SLACK = 4


def _ranges(starts: np.ndarray,
            lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``starts[i] + arange(lens[i])`` for every ``i``,
    concatenated, and the offsets delimiting each range in them."""
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    pos = np.arange(offs[-1], dtype=np.int64)
    pos += np.repeat(starts - offs[:-1], lens)
    return offs, pos


def _starts_run(a: np.ndarray) -> np.ndarray:
    """Mask of the elements of ``a`` that differ from their
    predecessor (the first always does)."""
    out = np.empty(len(a), dtype=bool)
    out[:1] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a small integer array, without its fixed cost
    (several times the sort itself at one batch's sizes)."""
    a = np.sort(a)
    return a[_starts_run(a)]


@dataclass(frozen=True)
class BatchResult:
    """Per-batch outcome and cost accounting.

    ``affected`` is the set of vertices whose matching state the repair
    touched (released, re-pointed, proposed-to or dethroned);
    ``cursors_rebuilt`` — always a subset — is the vertices whose
    sorted-adjacency rows were patched because their neighbourhood
    changed.  ``host_entries_scanned`` counts adjacency entries
    actually examined; ``repairs`` counts matched-edge commits.
    """

    index: int
    num_ops: int
    affected: tuple[int, ...]
    cursors_rebuilt: tuple[int, ...]
    host_entries_scanned: int
    repairs: int
    rounds: int
    latency_s: float
    matched_edges: int
    weight: float

    @property
    def affected_vertices(self) -> int:
        return len(self.affected)


class StreamingEngine:
    """Common surface of the two engines."""

    kind: str = "?"

    def __init__(self, base: CSRGraph):
        self._overlay = OverlayGraph(base)
        self._n = base.num_vertices
        self._batches_applied = 0
        seeded = ld_seq(base, collect_stats=False)
        self.mate = seeded.mate.copy()

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def graph(self) -> OverlayGraph:
        """The live base+overlay graph (public read surface)."""
        return self._overlay

    def snapshot(self, name: str | None = None) -> CSRGraph:
        """Exact CSR of the current (mutated) graph."""
        return self._overlay.to_csr(name)

    @property
    def weight(self) -> float:
        """Current matching weight: matched edges summed in ascending
        order of their lower endpoint, as
        :func:`~repro.matching.validate.matching_weight` sums them."""
        v = np.flatnonzero(np.arange(self._n) < self.mate)
        return float(self._overlay.edge_weights(v, self.mate[v]).sum())

    @property
    def matched_edges(self) -> int:
        return int((self.mate != UNMATCHED).sum()) // 2

    def _apply_batch(self, batch: UpdateBatch) -> tuple[np.ndarray, tuple]:
        """Apply ``batch`` to the overlay, all or nothing (see
        :meth:`OverlayGraph.apply_batch`).  Returns the changed
        vertices (every op's endpoints, ascending) and the overlay's
        ``(keys, old_w, new_w)`` of the touched edges."""
        edits = self._overlay.apply_batch(batch.ops)
        keys = edits[0]
        return _unique(np.concatenate([keys // self._n,
                                       keys % self._n])), edits

    def _apply_ops(self, batch: UpdateBatch) -> set[int]:
        """:meth:`_apply_batch`'s changed vertices as a set."""
        return set(self._apply_batch(batch)[0].tolist())

    def _emit(self, result: BatchResult) -> None:
        count(STREAM_BATCH_COUNTER, 1,
              _COUNTER_HELP[STREAM_BATCH_COUNTER], engine=self.kind)
        count(STREAM_REPAIR_COUNTER, result.repairs,
              _COUNTER_HELP[STREAM_REPAIR_COUNTER], engine=self.kind)
        count(STREAM_AFFECTED_COUNTER, result.affected_vertices,
              _COUNTER_HELP[STREAM_AFFECTED_COUNTER], engine=self.kind)

    def apply(self, batch: UpdateBatch) -> BatchResult:
        raise NotImplementedError


class IncrementalLD(StreamingEngine):
    """Local repair to the exact LD fixed point after each batch.

    Every row lives in one pool: a neighbour array and a weight array
    shared by all vertices, each row kept sorted descending by
    ``(w, eid)`` (the PointerIndex layout) in its slot
    ``[start, start + cap)`` of which the first ``len`` entries are
    live.  Eids are not stored; ``min(v, u) * n + max(v, u)`` is derived
    where a weight tie needs it.
    """

    kind = "incremental"

    def __init__(self, base: CSRGraph):
        super().__init__(base)
        n = self._n
        nbrs = base.sorted_neighbors()
        m2 = len(nbrs)
        self._nbr = np.empty(m2 + m2 // _POOL_SLACK, dtype=nbrs.dtype)
        self._w = np.empty(len(self._nbr), dtype=np.float64)
        self._nbr[:m2] = nbrs
        self._w[:m2] = base.weights[base.sorted_row_order()]
        self._start = base.indptr[:-1].astype(np.int64)
        self._len = np.diff(base.indptr).astype(np.int64)
        self._cap = self._len.copy()
        self._tail = m2
        # Matched key per vertex ((-inf, -1) = free), the O(1) side of
        # the dethronable test.
        self._mw = np.full(n, _NEG_INF, dtype=np.float64)
        self._meid = np.full(n, -1, dtype=np.int64)
        v = np.flatnonzero(np.arange(n) < self.mate)
        u = self.mate[v]
        self._mw[v] = self._mw[u] = self._overlay.edge_weights(v, u)
        self._meid[v] = self._meid[u] = v * n + u
        self._matched = len(v)

    @property
    def weight(self) -> float:
        return matched_vertex_weight(self.mate, self._mw)

    @property
    def matched_edges(self) -> int:
        return self._matched

    # -------------------------------------------------------------- #
    def _release(self, v: int) -> int:
        """Unmatch ``v`` (and its partner); returns the ex-partner."""
        u = int(self.mate[v])
        if u != UNMATCHED:
            self.mate[v] = self.mate[u] = UNMATCHED
            self._mw[v] = self._mw[u] = _NEG_INF
            self._meid[v] = self._meid[u] = -1
            self._matched -= 1
        return u

    def _eids(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        lo = np.minimum(v, u).astype(np.int64)
        return lo * self._n + np.maximum(v, u)

    def _rank(self, owner: np.ndarray, w: np.ndarray,
              eid: np.ndarray) -> np.ndarray:
        """Row-relative position of key ``(w, eid)`` in each ``owner``'s
        row: the number of entries that sort before it.  All queries
        bisect their rows together, one power-of-two step per pass."""
        last = self._start[owner] - 1
        lens = self._len[owner]
        rank = np.zeros(len(owner), dtype=np.int64)
        step = 1 << int(lens.max(initial=0)).bit_length()
        while step > 1:
            step >>= 1
            probe = np.minimum(rank + step, lens)
            at = last + probe
            wm = self._w[at]
            before = wm > w
            tie = np.flatnonzero(wm == w)
            if tie.size:
                before[tie] = self._eids(owner[tie], self._nbr[at[tie]]) \
                    > eid[tie]
            # A probe clipped to the row end is past the answer or at
            # an entry already counted; either way it must not move.
            before &= probe > rank
            rank[before] = probe[before]
        return rank

    def _patch_rows(self, rows: np.ndarray, edits: tuple) -> None:
        """Patch every changed row in place of its old state.

        ``rows`` are the changed vertices, ascending, and ``edits`` the
        overlay's ``(keys, old_w, new_w)`` of the touched edges.  Each
        touched edge's old entries (one per endpoint) leave their rows
        and its new ones join, each found by bisecting its row for its
        key, so per-entry work touches only the changed entries.  The
        kept entries are then moved as whole runs: a run between two
        changes keeps its order, and a run already at its new position
        is not moved at all.  A row that outgrows its slot moves to the
        pool tail with ``cap = 1.5 * len + 2``; a full tail compacts.
        """
        keys, old_w, new_w = edits
        if not len(keys):
            return
        n = self._n
        lo, hi = keys // n, keys % n
        d, a = np.flatnonzero(old_w > 0), np.flatnonzero(new_w > 0)
        owner = np.concatenate([lo[d], hi[d], lo[a], hi[a]])
        nbr = np.concatenate([hi[d], lo[d], hi[a], lo[a]])
        w = np.concatenate([old_w[d], old_w[d], new_w[a], new_w[a]])
        eid = np.concatenate([keys[d], keys[d], keys[a], keys[a]])
        at = self._rank(owner, w, eid)
        row = np.searchsorted(rows, owner)
        nd = 2 * len(d)

        # Changed-row slots: grow or compact before anything is moved.
        old_len = self._len[rows]
        lens = (old_len - np.bincount(row[:nd], minlength=len(rows))
                + np.bincount(row[nd:], minlength=len(rows)))
        src_start = self._start[rows]
        grow = lens > self._cap[rows]
        if grow.any():
            moved = rows[grow]
            cap = 3 * lens[grow] // 2 + 2
            self._cap[moved] = cap
            need = int(cap.sum())
            if self._tail + need > len(self._nbr):
                self._compact()
                src_start = self._start[rows]
            else:
                self._start[moved] = self._tail + np.cumsum(cap) - cap
                self._tail += need
        self._len[rows] = lens
        dest_start = self._start[rows]

        # Row-major positions ``row * span + at``: the changes of all
        # rows in one sorted order.  A new entry goes before the old
        # entry at its position, new entries at one position by key.
        span = int(old_len.max()) + 1
        row_lo = np.arange(len(rows), dtype=np.int64) * span
        drop_at = np.sort(row[:nd] * span + at[:nd])
        add_at = row[nd:] * span + at[nd:]
        order = np.lexsort((-eid[nd:], -w[nd:], add_at))
        add_at, add_row = add_at[order], row[nd:][order]
        drops0 = np.searchsorted(drop_at, row_lo)
        adds0 = np.searchsorted(add_at, row_lo)

        # Old position x of a row lands at x + (new entries at <= x) -
        # (old entries dropped before x).
        add_dest = (dest_start[add_row] + add_at - row_lo[add_row]
                    - (np.searchsorted(drop_at, add_at) - drops0[add_row])
                    + np.arange(len(add_at)) - adds0[add_row])
        # Runs of kept entries: a row cut at every change.
        # (A repeated cut only adds an empty run.)
        cuts = np.sort(np.concatenate(
            [row_lo, row_lo + old_len, drop_at, drop_at + 1, add_at]))
        run_lo, run_hi = cuts[:-1], cuts[1:]
        run_row = run_lo // span
        x = run_lo - row_lo[run_row]
        kept = x < old_len[run_row]
        if len(drop_at):
            k = np.minimum(np.searchsorted(drop_at, run_lo),
                           len(drop_at) - 1)
            kept &= drop_at[k] != run_lo
        run_row, run_lo, run_hi, x = (run_row[kept], run_lo[kept],
                                      run_hi[kept], x[kept])
        src = src_start[run_row] + x
        dest = (dest_start[run_row] + x
                + np.searchsorted(add_at, run_lo, side="right")
                - adds0[run_row]
                - np.searchsorted(drop_at, run_lo) + drops0[run_row])
        move = src != dest
        run_len = (run_hi - run_lo)[move]
        _, pos = _ranges(src[move], run_len)
        shift = np.repeat((dest - src)[move], run_len)
        moved_nbr, moved_w = self._nbr[pos], self._w[pos]
        pos += shift
        self._nbr[pos] = moved_nbr
        self._w[pos] = moved_w
        self._nbr[add_dest] = nbr[nd:][order]
        self._w[add_dest] = w[nd:][order]

    def _compact(self) -> None:
        """Repack every row at its (preserved) cap in vertex order,
        leaving ``1 / _POOL_SLACK`` of the total as tail room."""
        start = np.cumsum(self._cap) - self._cap
        total = int(self._cap.sum())
        _, src = _ranges(self._start, self._len)
        _, dest = _ranges(start, self._len)
        nbr = np.empty(total + total // _POOL_SLACK, dtype=self._nbr.dtype)
        w = np.empty(len(nbr), dtype=np.float64)
        nbr[dest] = self._nbr[src]
        w[dest] = self._w[src]
        self._nbr, self._w, self._start, self._tail = nbr, w, start, total

    def _point(self, frontier: np.ndarray) -> tuple[np.ndarray, ...]:
        """First dethronable neighbour of every vertex in ``frontier``
        (free, ascending) in sorted order — the max-key one.

        All rows are scanned together in growing chunks (8 entries,
        then 4x more per pass); each row charges ``_host_scanned`` its
        hit index + 1, or its full length when nothing is dethronable.
        Returns ``(v, target, w, eid)`` arrays, ``v`` ascending.
        """
        starts, lens = self._start[frontier], self._len[frontier]
        hit = np.full(len(frontier), -1, dtype=np.int64)
        active = np.flatnonzero(lens)
        off, chunk = 0, _FIRST_CHUNK
        while active.size:
            take = np.minimum(lens[active] - off, chunk)
            offs, pos = _ranges(starts[active] + off, take)
            nn, cw = self._nbr[pos], self._w[pos]
            mw = self._mw[nn]
            cond = cw > mw
            tie = np.flatnonzero(cw == mw)
            if tie.size:
                owner = np.repeat(frontier[active], take)[tie]
                cond[tie] = (self._eids(owner, nn[tie])
                             > self._meid[nn[tie]])
            at = np.flatnonzero(cond)
            seg = np.searchsorted(offs, at, side="right") - 1
            first = np.flatnonzero(_starts_run(seg))
            hit[active[seg[first]]] = off + at[first] - offs[seg[first]]
            off += chunk
            chunk *= _CHUNK_GROWTH
            active = active[(hit[active] < 0) & (lens[active] > off)]
        found = hit >= 0
        self._host_scanned += int(hit[found].sum() + found.sum()
                                  + lens[~found].sum())
        v = frontier[found]
        at = starts[found] + hit[found]
        target = self._nbr[at].astype(np.int64)
        return v, target, self._w[at], self._eids(v, target)

    # -------------------------------------------------------------- #
    def apply(self, batch: UpdateBatch) -> BatchResult:
        t0 = time.perf_counter()
        rows, edits = self._apply_batch(batch)

        # Release every matched edge at a changed endpoint: afterwards
        # each blocking edge of the mutated graph has a free endpoint.
        partners = self.mate[rows]
        frontier = _unique(np.concatenate(
            [rows, partners[partners != UNMATCHED]]))
        self._matched -= int(np.count_nonzero(
            self.mate[frontier] != UNMATCHED)) // 2
        self.mate[frontier] = UNMATCHED
        self._mw[frontier] = _NEG_INF
        self._meid[frontier] = -1
        self._patch_rows(rows, edits)
        affected = set(frontier.tolist())

        self._host_scanned = 0
        repairs = 0
        rounds = 0
        while frontier.size:
            rounds += 1
            # Pointing phase: each free frontier vertex proposes along
            # its best dethronable edge (sorted order over an exact
            # row, so "first valid" is "max key").
            pv, pt, pw, pe = self._point(
                frontier[self.mate[frontier] == UNMATCHED])
            # Mutual pairs commit first, in one step.  This is exactly
            # what the ordered loop below would do with them: a free
            # vertex points at its max dethronable key, and every
            # proposer is free, so any y != t pointing at a pair's
            # vertex v has key(y, v) < key(v, t).  Hence no proposal
            # ordered before the pair touches v or t (the pair commits
            # as soon as the loop reaches it), and every proposal at v
            # or t is ordered after it and finds it matched through a
            # larger key — it goes to the next frontier either way.
            # ``pv`` ascends, so a target's own proposal is found by
            # bisection.
            k = np.minimum(np.searchsorted(pv, pt), max(len(pv) - 1, 0))
            mutual = (pv[k] == pt) & (pt[k] == pv)
            if mutual.any():
                mv = pv[mutual]
                self.mate[mv] = pt[mutual]
                self._mw[mv] = pw[mutual]
                self._meid[mv] = pe[mutual]
                pairs = len(mv) // 2
                repairs += pairs
                self._matched += pairs
                affected.update(mv.tolist())
                rest = ~mutual
                pv, pt, pw, pe = pv[rest], pt[rest], pw[rest], pe[rest]
            # Matching phase for the rest: commit in descending key
            # order under the dethrone rule.  Dethroning a *matched*
            # target only raises its matched key, so it can never
            # create a blocking edge at the target.  A *free* target
            # did not point back (mutual pairs are gone), and may not
            # accept a lower offer than its own max dethronable key —
            # that would strand the higher blocking edge it aspires
            # to — so both join the next frontier and point again.  A
            # proposer stays free until its own proposal: only a
            # mutual commit can match a free vertex.  The globally
            # maximal proposal whose target pointed is always mutual
            # (both sides' max dethronable key is the shared edge), so
            # rounds without a commit can only grow the pointed set —
            # termination is bounded by commits + frontier growth.
            order = np.lexsort((-pe, -pw))
            next_frontier: set[int] = set()
            for w, e, v, target in zip(pw[order].tolist(),
                                       pe[order].tolist(),
                                       pv[order].tolist(),
                                       pt[order].tolist()):
                if self.mate[target] == UNMATCHED:
                    next_frontier.add(v)
                    next_frontier.add(target)
                    affected.add(target)
                    continue
                tw, te = self._mw[target], self._meid[target]
                if not (w > tw or (w == tw and e > te)):
                    next_frontier.add(v)
                    continue
                old = self._release(target)
                next_frontier.add(old)
                affected.add(old)
                self.mate[v] = target
                self.mate[target] = v
                self._mw[v] = self._mw[target] = w
                self._meid[v] = self._meid[target] = e
                repairs += 1
                self._matched += 1
                affected.add(target)
                affected.add(v)
            frontier = np.array(sorted(next_frontier), dtype=np.int64)
            frontier = frontier[self.mate[frontier] == UNMATCHED]
            affected.update(frontier.tolist())

        self._batches_applied += 1
        result = BatchResult(
            index=self._batches_applied - 1,
            num_ops=batch.num_ops,
            affected=tuple(sorted(affected)),
            cursors_rebuilt=tuple(rows.tolist()),
            host_entries_scanned=self._host_scanned,
            repairs=repairs,
            rounds=rounds,
            latency_s=time.perf_counter() - t0,
            matched_edges=self._matched,
            weight=self.weight,
        )
        self._emit(result)
        return result


class RecomputeLD(StreamingEngine):
    """From-scratch oracle: snapshot + full ``ld_seq`` per batch."""

    kind = "recompute"

    def apply(self, batch: UpdateBatch) -> BatchResult:
        t0 = time.perf_counter()
        rows, _ = self._apply_batch(batch)
        snap = self._overlay.to_csr()
        fresh = ld_seq(snap, collect_stats=True)
        self.mate = fresh.mate
        self._batches_applied += 1
        result = BatchResult(
            index=self._batches_applied - 1,
            num_ops=batch.num_ops,
            affected=tuple(range(self._n)),  # everything is re-pointed
            cursors_rebuilt=tuple(rows.tolist()),
            host_entries_scanned=int(
                fresh.stats["host_entries_scanned"]),
            repairs=int(fresh.num_matched_edges),
            rounds=int(fresh.iterations),
            latency_s=time.perf_counter() - t0,
            matched_edges=int(fresh.num_matched_edges),
            weight=float(fresh.weight),
        )
        self._emit(result)
        return result


def make_engine(kind: str, base: CSRGraph) -> StreamingEngine:
    """Engine factory for ``--engine incremental|recompute``."""
    if kind == "incremental":
        return IncrementalLD(base)
    if kind == "recompute":
        return RecomputeLD(base)
    raise ValueError(f"unknown stream engine {kind!r}; "
                     f"have {STREAM_ENGINES}")
