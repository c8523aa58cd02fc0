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
base+overlay graph (:class:`~repro.graph.overlay.OverlayGraph`); then:

1. every matched edge incident to a *changed* vertex (an endpoint of
   any op) is released — after this, every blocking edge of the new
   graph has at least one free endpoint, because an all-matched
   blocking pair would have had to be blocking before the batch too;
2. only the changed vertices' sorted rows are patched, all in one
   vectorised pass per batch: their rows (sorted descending by
   ``(w, eid)``, the PointerIndex layout, in one pool shared by every
   vertex) are gathered, every entry of an edge the batch touched is
   dropped, and each touched edge's final state is merged back in at
   its sorted position — the kept entries are still in order, so
   nothing is re-sorted; everyone else keeps their row untouched;
3. pointing/matching rounds run from the affected frontier to the
   fixed point.  Pointing scans every free frontier vertex's sorted
   row at once for its first *dethronable* neighbour — free, or
   matched through a smaller key than the connecting edge; matching
   commits proposals in descending key order (the globally best
   proposal always commits, so every round makes progress), freeing
   dethroned partners into the next frontier.  When no free vertex can
   point anywhere, no blocking edge is left.

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
# Row order as one comparable key: ascending (owner, -w, -eid).
_ROW_KEY = np.dtype([("owner", np.int64), ("w", np.float64),
                     ("eid", np.int64)])


def _ranges(starts: np.ndarray,
            lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``starts[i] + arange(lens[i])`` for every ``i``,
    concatenated, and the offsets delimiting each range in them."""
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    pos = np.arange(offs[-1], dtype=np.int64)
    pos += np.repeat(starts - offs[:-1], lens)
    return offs, pos


def _row_keys(owner: np.ndarray, w: np.ndarray,
              eid: np.ndarray) -> np.ndarray:
    keys = np.empty(len(owner), dtype=_ROW_KEY)
    keys["owner"], keys["w"], keys["eid"] = owner, -w, -eid
    return keys


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

    def _apply_ops(self, batch: UpdateBatch) -> set[int]:
        """Mutate the overlay; returns the changed-vertex set."""
        changed: set[int] = set()
        for kind, u, v, w in batch.ops:
            if kind == "insert":
                self._overlay.insert(u, v, w)
            elif kind == "delete":
                self._overlay.delete(u, v)
            else:
                self._overlay.reweight(u, v, w)
            changed.add(u)
            changed.add(v)
        return changed

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
        order = base.sorted_row_order()
        m2 = len(order)
        self._nbr = np.empty(m2 + m2 // _POOL_SLACK,
                             dtype=np.int32 if n < 2**31 else np.int64)
        self._w = np.empty(len(self._nbr), dtype=np.float64)
        self._nbr[:m2] = base.indices[order]
        self._w[:m2] = base.weights[order]
        self._start = base.indptr[:-1].astype(np.int64)
        self._len = np.diff(base.indptr).astype(np.int64)
        self._cap = self._len.copy()
        self._tail = m2
        self._ids = np.arange(n, dtype=np.int64)
        self._mark = np.zeros(n, dtype=bool)
        # Matched key per vertex ((-inf, -1) = free), the O(1) side of
        # the dethronable test.
        self._mw = np.full(n, _NEG_INF, dtype=np.float64)
        self._meid = np.full(n, -1, dtype=np.int64)
        v = np.flatnonzero(self._ids < self.mate)
        u = self.mate[v]
        self._mw[v] = self._mw[u] = self._overlay.edge_weights(v, u)
        self._meid[v] = self._meid[u] = v * n + u

    @property
    def weight(self) -> float:
        return float(self._mw[self._ids < self.mate].sum())

    # -------------------------------------------------------------- #
    def _release(self, v: int) -> int:
        """Unmatch ``v`` (and its partner); returns the ex-partner."""
        u = int(self.mate[v])
        if u != UNMATCHED:
            self.mate[v] = self.mate[u] = UNMATCHED
            self._mw[v] = self._mw[u] = _NEG_INF
            self._meid[v] = self._meid[u] = -1
        return u

    def _eids(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        lo = np.minimum(v, u).astype(np.int64)
        return lo * self._n + np.maximum(v, u)

    def _patch_rows(self, rows: np.ndarray, batch: UpdateBatch) -> None:
        """Patch every changed row at once: drop each entry of ``rows``
        (the changed vertices, ascending) whose edge the batch touched,
        then merge each touched edge's final state back in at its
        sorted position.  A row that outgrows its slot moves to the
        pool tail with ``cap = 1.5 * len + 2``; a full tail compacts."""
        n = self._n
        final: dict[int, float | None] = {}
        for _, u, v, w in batch.ops:  # the last op on an edge wins
            final[min(u, v) * n + max(u, v)] = w
        touched = np.fromiter(final, dtype=np.int64, count=len(final))
        new_e = np.array([e for e, w in final.items() if w is not None],
                         dtype=np.int64)
        new_w = np.array([w for w in final.values() if w is not None],
                         dtype=np.float64)

        offs, pos = _ranges(self._start[rows], self._len[rows])
        owner = np.repeat(np.arange(len(rows)), np.diff(offs))
        nbr, w = self._nbr[pos], self._w[pos]
        eid = self._eids(rows[owner], nbr)
        # A touched edge joins two changed vertices, so only entries
        # pointing into ``rows`` are tested against the touched eids.
        self._mark[rows] = True
        cand = np.flatnonzero(self._mark[nbr])
        self._mark[rows] = False
        keep = np.ones(len(eid), dtype=bool)
        keep[cand[np.isin(eid[cand], touched)]] = False
        owner, nbr, w, eid = owner[keep], nbr[keep], w[keep], eid[keep]

        # Both directions of each surviving edge, ordered like the kept
        # entries: by (owner, -w, -eid).
        lo, hi = new_e // n, new_e % n
        add_owner = np.searchsorted(rows, np.concatenate([lo, hi]))
        add_nbr = np.concatenate([hi, lo])
        add_w = np.concatenate([new_w, new_w])
        add_e = np.concatenate([new_e, new_e])
        order = np.lexsort((-add_e, -add_w, add_owner))
        add_owner, add_nbr = add_owner[order], add_nbr[order]
        add_w, add_e = add_w[order], add_e[order]
        at = np.searchsorted(_row_keys(owner, w, eid),
                             _row_keys(add_owner, add_w, add_e))
        nbr = np.insert(nbr, at, add_nbr)
        w = np.insert(w, at, add_w)
        lens = (np.bincount(owner, minlength=len(rows))
                + np.bincount(add_owner, minlength=len(rows)))

        grow = lens > self._cap[rows]
        if grow.any():
            moved = rows[grow]
            cap = 3 * lens[grow] // 2 + 2
            self._cap[moved] = cap
            need = int(cap.sum())
            if self._tail + need > len(self._nbr):
                self._compact()
            else:
                self._start[moved] = self._tail + np.cumsum(cap) - cap
                self._tail += need
        self._len[rows] = lens
        _, dest = _ranges(self._start[rows], lens)
        self._nbr[dest] = nbr
        self._w[dest] = w

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
            first = np.flatnonzero(np.diff(seg, prepend=-1))
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
        rows = np.array(sorted(self._apply_ops(batch)), dtype=np.int64)

        # Release every matched edge at a changed endpoint: afterwards
        # each blocking edge of the mutated graph has a free endpoint.
        partners = self.mate[rows]
        partners = partners[partners != UNMATCHED]
        for x in (rows, partners):
            self.mate[x] = UNMATCHED
            self._mw[x] = _NEG_INF
            self._meid[x] = -1
        frontier = np.union1d(rows, partners)
        self._patch_rows(rows, batch)
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
            # Matching phase: commit in descending key order under the
            # mutual-or-dethrone rule.  Dethroning a *matched* target
            # only raises its matched key, so it can never create a
            # blocking edge at the target; a *free* target may commit
            # only mutually (its own pointer is its max dethronable
            # key) — accepting a lower offer would strand the higher
            # blocking edge it was still aspiring to.  A free target
            # that did not point this round joins the next frontier
            # instead, so it points before accepting.  The globally
            # maximal proposal whose target pointed is always mutual
            # (both sides' max dethronable key is the shared edge), so
            # rounds without a commit can only grow the pointed set —
            # termination is bounded by commits + frontier growth.
            # lexsort is stable: a mutual pair's two proposals keep
            # ascending-v order.
            order = np.lexsort((-pe, -pw))
            pv, pt = pv[order].tolist(), pt[order].tolist()
            pw, pe = pw[order].tolist(), pe[order].tolist()
            pointed = dict(zip(pv, pt))
            next_frontier: set[int] = set()
            for w, e, v, target in zip(pw, pe, pv, pt):
                if self.mate[v] != UNMATCHED:
                    # matched as someone else's mutual partner.
                    continue
                if self.mate[target] != UNMATCHED:
                    tw, te = self._mw[target], self._meid[target]
                    if w > tw or (w == tw and e > te):
                        old = self._release(target)
                        next_frontier.add(old)
                        affected.add(old)
                    else:
                        next_frontier.add(v)
                        continue
                elif pointed.get(target) != v:
                    next_frontier.add(v)
                    next_frontier.add(target)
                    affected.add(target)
                    continue
                self.mate[v] = target
                self.mate[target] = v
                self._mw[v] = self._mw[target] = w
                self._meid[v] = self._meid[target] = e
                repairs += 1
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
            matched_edges=self.matched_edges,
            weight=self.weight,
        )
        self._emit(result)
        return result


class RecomputeLD(StreamingEngine):
    """From-scratch oracle: snapshot + full ``ld_seq`` per batch."""

    kind = "recompute"

    def apply(self, batch: UpdateBatch) -> BatchResult:
        t0 = time.perf_counter()
        changed = self._apply_ops(batch)
        snap = self._overlay.to_csr()
        fresh = ld_seq(snap, collect_stats=True)
        self.mate = fresh.mate
        self._batches_applied += 1
        result = BatchResult(
            index=self._batches_applied - 1,
            num_ops=batch.num_ops,
            affected=tuple(range(self._n)),  # everything is re-pointed
            cursors_rebuilt=tuple(sorted(changed)),
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
