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
2. only the changed vertices' sorted-row cursors are invalidated: their
   adjacency rows (sorted descending by ``(w, eid)``, the
   PointerIndex layout) are rebuilt from the overlay, everyone else
   keeps their base row;
3. pointing/matching rounds run from the affected frontier to the
   fixed point.  Pointing scans a free vertex's sorted row for the
   first *dethronable* neighbour — free, or matched through a smaller
   key than the connecting edge; matching commits proposals in
   descending key order (the globally best proposal always commits, so
   every round makes progress), freeing dethroned partners into the
   next frontier.  When no free vertex can point anywhere, no blocking
   edge is left.

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
_SCAN_CHUNK = 64


@dataclass(frozen=True)
class BatchResult:
    """Per-batch outcome and cost accounting.

    ``affected`` is the set of vertices whose matching state the repair
    touched (released, re-pointed, proposed-to or dethroned);
    ``cursors_rebuilt`` — always a subset — is the vertices whose
    sorted-adjacency rows were invalidated because their neighbourhood
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
        """Current matching weight (sum of matched edge weights)."""
        total = 0.0
        for v in np.nonzero(self.mate != UNMATCHED)[0].tolist():
            u = int(self.mate[v])
            if v < u:
                total += self._overlay.edge_weight(v, u)
        return total

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
    """Local repair to the exact LD fixed point after each batch."""

    kind = "incremental"

    def __init__(self, base: CSRGraph):
        super().__init__(base)
        # PointerIndex layout: every base row sorted descending by
        # (weight, eid) — the base graph's memoised row order; per-vertex
        # overlay rows replace base slices only after that vertex's
        # neighbourhood changes (the "cursor rebuild").
        eids = base.canonical_edge_ids()
        order = base.sorted_row_order()
        self._indptr = base.indptr
        self._sorted_nbrs = base.indices[order]
        self._sorted_ws = base.weights[order]
        self._sorted_eids = eids[order]
        self._rows: dict[int, tuple[np.ndarray, np.ndarray,
                                    np.ndarray]] = {}
        # Matched key per vertex ((-inf, -1) = free), the O(1) side of
        # the dethronable test.
        self._mw = np.full(self._n, _NEG_INF, dtype=np.float64)
        self._meid = np.full(self._n, -1, dtype=np.int64)
        for v in np.nonzero(self.mate != UNMATCHED)[0].tolist():
            u = int(self.mate[v])
            if v < u:
                self._set_matched_key(v, u,
                                      self._overlay.edge_weight(v, u))

    # -------------------------------------------------------------- #
    def _eid(self, u: int, v: int) -> int:
        lo, hi = (u, v) if u < v else (v, u)
        return lo * self._n + hi

    def _set_matched_key(self, v: int, u: int, w: float) -> None:
        e = self._eid(v, u)
        self._mw[v] = self._mw[u] = w
        self._meid[v] = self._meid[u] = e

    def _release(self, v: int) -> int:
        """Unmatch ``v`` (and its partner); returns the ex-partner."""
        u = int(self.mate[v])
        if u != UNMATCHED:
            self.mate[v] = self.mate[u] = UNMATCHED
            self._mw[v] = self._mw[u] = _NEG_INF
            self._meid[v] = self._meid[u] = -1
        return u

    def _row(self, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        got = self._rows.get(v)
        if got is not None:
            return got
        s, e = int(self._indptr[v]), int(self._indptr[v + 1])
        return (self._sorted_nbrs[s:e], self._sorted_ws[s:e],
                self._sorted_eids[s:e])

    def _rebuild_row(self, v: int) -> None:
        """Cursor invalidation: re-sort ``v``'s current adjacency."""
        nbrs, ws = self._overlay.row_arrays(v)
        lo = np.minimum(v, nbrs)
        eids = lo * np.int64(self._n) + np.maximum(v, nbrs)
        order = np.lexsort((-eids, -ws))
        self._rows[v] = (np.ascontiguousarray(nbrs[order]),
                         np.ascontiguousarray(ws[order]),
                         np.ascontiguousarray(eids[order]))

    def _point(self, v: int) -> tuple[float, int, int] | None:
        """First dethronable neighbour of free ``v`` in sorted order
        (= the max-key one); returns ``(w, eid, target)`` or ``None``.
        Scans in chunks, charging every examined entry to
        ``_host_scanned``."""
        nbrs, ws, es = self._row(v)
        mw, meid = self._mw, self._meid
        m = len(nbrs)
        start = 0
        while start < m:
            stop = min(start + _SCAN_CHUNK, m)
            nn = nbrs[start:stop]
            cw = ws[start:stop]
            ce = es[start:stop]
            cond = (cw > mw[nn]) | ((cw == mw[nn]) & (ce > meid[nn]))
            hit = np.flatnonzero(cond)
            if hit.size:
                k = int(hit[0])
                self._host_scanned += k + 1
                return float(cw[k]), int(ce[k]), int(nn[k])
            self._host_scanned += stop - start
            start = stop
        return None

    # -------------------------------------------------------------- #
    def apply(self, batch: UpdateBatch) -> BatchResult:
        t0 = time.perf_counter()
        changed = self._apply_ops(batch)

        # Release every matched edge at a changed endpoint: afterwards
        # each blocking edge of the mutated graph has a free endpoint.
        frontier: set[int] = set()
        for x in changed:
            p = self._release(x)
            if p != UNMATCHED:
                frontier.add(p)
            frontier.add(x)
        for x in changed:
            self._rebuild_row(x)
        cursors_rebuilt = tuple(sorted(changed))
        affected = set(frontier)

        self._host_scanned = 0
        repairs = 0
        rounds = 0
        while frontier:
            rounds += 1
            # Pointing phase: each free frontier vertex proposes along
            # its best dethronable edge (sorted order over an exact
            # row, so "first valid" is "max key").
            proposals: list[tuple[float, int, int, int]] = []
            for v in sorted(frontier):
                if self.mate[v] != UNMATCHED:
                    continue
                best = self._point(v)
                if best is not None:
                    w, e, target = best
                    proposals.append((w, e, v, target))
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
            pointed = {v: target for _, _, v, target in proposals}
            next_frontier: set[int] = set()
            for w, e, v, target in sorted(
                    proposals, key=lambda p: (-p[0], -p[1])):
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
            frontier = {x for x in next_frontier
                        if self.mate[x] == UNMATCHED}
            affected |= frontier

        self._batches_applied += 1
        result = BatchResult(
            index=self._batches_applied - 1,
            num_ops=batch.num_ops,
            affected=tuple(sorted(affected)),
            cursors_rebuilt=cursors_rebuilt,
            host_entries_scanned=self._host_scanned,
            repairs=repairs,
            rounds=rounds,
            latency_s=time.perf_counter() - t0,
            matched_edges=self.matched_edges,
            weight=float(self._mw[self._mw > _NEG_INF].sum() / 2.0),
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
