"""IncrementalLD's pooled row layout vs the per-vertex engine it replaced.

``IncrementalLD`` keeps every sorted row in one pool, patches the rows a
batch changed with a single vectorised merge, and points the whole
frontier at once.  :class:`RowRebuildLD` below is the engine that layout
replaced, kept here as a test-only oracle: one ``(nbrs, ws, eids)`` copy
per changed vertex, re-sorted from the overlay after every batch, and a
Python loop pointing one frontier vertex at a time.  Every test drives
both engines with the same batches and demands identical
``BatchResult`` fields, mate arrays and changed rows after every batch.

The boundary tests at the end cover what the streaming plane must
reject: non-finite weights and corrupt event logs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.graph.overlay import OverlayGraph
from repro.harness.datasets import quality_instance
from repro.matching.ld_seq import ld_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import matching_weight
from repro.streaming import (
    EdgeStream,
    IncrementalLD,
    RecomputeLD,
    UpdateBatch,
)
from repro.streaming import engine as engine_mod
from repro.streaming.engine import BatchResult, StreamingEngine

_NEG_INF = -np.inf
_SCAN_CHUNK = 64


# ------------------------------------------------------------------ #
# reference oracle (the per-vertex engine the pool replaced)
# ------------------------------------------------------------------ #


class RowRebuildLD(StreamingEngine):
    """Per-vertex row copies rebuilt from the overlay; one ``_point``
    call per frontier vertex."""

    kind = "incremental"

    def __init__(self, base: CSRGraph):
        super().__init__(base)
        order = base.sorted_row_order()
        self._indptr = base.indptr
        self._sorted_nbrs = base.indices[order]
        self._sorted_ws = base.weights[order]
        self._sorted_eids = base.canonical_edge_ids()[order]
        self._rows: dict[int, tuple[np.ndarray, np.ndarray,
                                    np.ndarray]] = {}
        self._mw = np.full(self._n, _NEG_INF, dtype=np.float64)
        self._meid = np.full(self._n, -1, dtype=np.int64)
        for v in np.nonzero(self.mate != UNMATCHED)[0].tolist():
            u = int(self.mate[v])
            if v < u:
                self._mw[v] = self._mw[u] = self._overlay.edge_weight(v, u)
                self._meid[v] = self._meid[u] = v * self._n + u

    def _release(self, v: int) -> int:
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
        nbrs, ws = self._overlay.row_arrays(v)
        lo = np.minimum(v, nbrs)
        eids = lo * np.int64(self._n) + np.maximum(v, nbrs)
        order = np.lexsort((-eids, -ws))
        self._rows[v] = (nbrs[order], ws[order], eids[order])

    def _point(self, v: int) -> tuple[float, int, int] | None:
        nbrs, ws, es = self._row(v)
        mw, meid = self._mw, self._meid
        m = len(nbrs)
        start = 0
        while start < m:
            stop = min(start + _SCAN_CHUNK, m)
            nn, cw, ce = nbrs[start:stop], ws[start:stop], es[start:stop]
            cond = (cw > mw[nn]) | ((cw == mw[nn]) & (ce > meid[nn]))
            hit = np.flatnonzero(cond)
            if hit.size:
                k = int(hit[0])
                self._host_scanned += k + 1
                return float(cw[k]), int(ce[k]), int(nn[k])
            self._host_scanned += stop - start
            start = stop
        return None

    def apply(self, batch: UpdateBatch) -> BatchResult:
        changed = self._apply_ops(batch)
        frontier: set[int] = set()
        for x in changed:
            p = self._release(x)
            if p != UNMATCHED:
                frontier.add(p)
            frontier.add(x)
        for x in changed:
            self._rebuild_row(x)
        affected = set(frontier)
        self._host_scanned = repairs = rounds = 0
        while frontier:
            rounds += 1
            proposals = []
            for v in sorted(frontier):
                if self.mate[v] != UNMATCHED:
                    continue
                best = self._point(v)
                if best is not None:
                    w, e, target = best
                    proposals.append((w, e, v, target))
            pointed = {v: target for _, _, v, target in proposals}
            next_frontier: set[int] = set()
            for w, e, v, target in sorted(
                    proposals, key=lambda p: (-p[0], -p[1])):
                if self.mate[v] != UNMATCHED:
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
        return BatchResult(
            index=self._batches_applied - 1,
            num_ops=batch.num_ops,
            affected=tuple(sorted(affected)),
            cursors_rebuilt=tuple(sorted(changed)),
            host_entries_scanned=self._host_scanned,
            repairs=repairs,
            rounds=rounds,
            latency_s=0.0,
            matched_edges=self.matched_edges,
            weight=float(
                self._mw[np.arange(self._n) < self.mate].sum()),
        )


# ------------------------------------------------------------------ #
# the differential check
# ------------------------------------------------------------------ #

FIELDS = ("index", "num_ops", "affected", "cursors_rebuilt",
          "host_entries_scanned", "repairs", "rounds", "matched_edges",
          "weight")


def pool_row(eng: IncrementalLD, v: int) -> tuple[np.ndarray, np.ndarray]:
    s = int(eng._start[v])
    e = s + int(eng._len[v])
    return eng._nbr[s:e], eng._w[s:e]


def assert_same_run(g: CSRGraph, batches) -> IncrementalLD:
    """Apply ``batches`` to both engines; everything must agree after
    every batch, and the end state must be from-scratch LD's."""
    eng, ref = IncrementalLD(g), RowRebuildLD(g)
    assert np.array_equal(eng.mate, ref.mate)
    for batch in batches:
        got, want = eng.apply(batch), ref.apply(batch)
        for name in FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        assert np.array_equal(eng.mate, ref.mate)
        assert np.array_equal(eng._mw, ref._mw)
        assert np.array_equal(eng._meid, ref._meid)
        for v in got.cursors_rebuilt:
            nbrs, ws = pool_row(eng, v)
            rn, rw, re = ref._row(v)
            assert np.array_equal(nbrs, rn) and np.array_equal(ws, rw)
            lo = np.minimum(v, nbrs).astype(np.int64)
            assert np.array_equal(lo * g.num_vertices
                                  + np.maximum(v, nbrs), re)
    snap = eng.snapshot()
    assert np.array_equal(eng.mate, ld_seq(snap, collect_stats=False).mate)
    return eng


def tie_heavy(g: CSRGraph) -> CSRGraph:
    if g.num_directed_edges == 0:
        return g
    return g.reweighted((g.canonical_edge_ids() % 3 + 1).astype(float))


def tied_batches(stream: EdgeStream) -> list[UpdateBatch]:
    """The same ops with weights snapped to {1, 2, 3}."""
    return [UpdateBatch(ops=tuple(
        (k, u, v, None if w is None else float(1 + int(w * 3) % 3))
        for k, u, v, w in b.ops)) for b in stream]


@given(g=random_graphs(tie_prone=True), seed=st.integers(0, 2**16))
def test_random_streams_match_oracle(g, seed):
    stream = EdgeStream.generate(g, num_batches=6, batch_size=5, seed=seed)
    assert_same_run(g, stream)


@given(g=random_graphs(), seed=st.integers(0, 2**16))
def test_tie_heavy_streams_match_oracle(g, seed):
    g = tie_heavy(g)
    stream = EdgeStream.generate(g, num_batches=6, batch_size=5, seed=seed)
    assert_same_run(g, tied_batches(stream))


@pytest.mark.parametrize("tied", [False, True])
def test_rmat_stream_matches_oracle(tied):
    g = rmat_graph(9, 8, seed=3)
    if tied:
        g = tie_heavy(g)
    stream = EdgeStream.generate(g, num_batches=40, batch_size=32, seed=5)
    assert_same_run(g, tied_batches(stream) if tied else stream)


def assert_pool_sound(eng: IncrementalLD) -> None:
    """Every row fits its slot, and the slots never overlap."""
    assert (eng._len <= eng._cap).all()
    order = np.argsort(eng._start, kind="stable")
    ends = eng._start[order] + eng._cap[order]
    assert (ends[:-1] <= eng._start[order][1:]).all()
    assert ends.max(initial=0) <= eng._tail <= len(eng._nbr)


def test_compaction_preserves_rows(monkeypatch):
    """No tail room at all: every row that outgrows its slot forces a
    compaction of the whole pool, which must keep every row's cap."""
    compactions = []
    compact, patch = IncrementalLD._compact, IncrementalLD._patch_rows

    def counted(self):
        compactions.append(len(self._nbr))
        compact(self)

    def checked(self, rows, batch):
        patch(self, rows, batch)
        assert_pool_sound(self)

    monkeypatch.setattr(engine_mod, "_POOL_SLACK", 10**9)
    monkeypatch.setattr(IncrementalLD, "_compact", counted)
    monkeypatch.setattr(IncrementalLD, "_patch_rows", checked)
    g = rmat_graph(8, 6, seed=1)
    stream = EdgeStream.generate(g, num_batches=30, batch_size=24, seed=2,
                                 p_insert=0.8, p_delete=0.1)
    assert_same_run(g, stream)
    assert len(compactions) >= 5


def test_pool_copies_in_small_blocks(monkeypatch):
    """Filling and compacting the pool a few entries at a time, so hub
    rows span several blocks, keeps every row, edited or not."""
    monkeypatch.setattr(engine_mod, "_POOL_SLACK", 10**9)
    monkeypatch.setattr(engine_mod, "_COPY_BLOCK", 5)
    g = rmat_graph(8, 6, seed=1)
    stream = EdgeStream.generate(g, num_batches=30, batch_size=24, seed=2,
                                 p_insert=0.8, p_delete=0.1)
    eng = assert_same_run(g, stream)
    ref = RowRebuildLD(g)
    for batch in stream:
        ref.apply(batch)
    for v in range(g.num_vertices):
        nbrs, ws = pool_row(eng, v)
        rn, rw, _ = ref._row(v)
        assert np.array_equal(nbrs, rn) and np.array_equal(ws, rw)


def test_insert_then_delete_in_one_batch():
    g = build_graph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)])
    batches = [
        UpdateBatch(ops=(("insert", 0, 5, 3.0), ("delete", 0, 5, None))),
        UpdateBatch(ops=(("delete", 1, 2, None), ("insert", 1, 2, 0.1),
                         ("reweight", 1, 2, 4.0))),
        UpdateBatch(ops=(("reweight", 0, 1, 2.0), ("reweight", 0, 1, 2.0),
                         ("insert", 2, 3, 2.0), ("delete", 2, 3, None),
                         ("insert", 2, 3, 2.0))),
        UpdateBatch(ops=(("delete", 3, 4, None), ("insert", 3, 4, 9.0),
                         ("delete", 3, 4, None))),
    ]
    eng = assert_same_run(g, batches)
    assert pool_row(eng, 3)[0].tolist() == [2]
    assert pool_row(eng, 4)[0].size == 0


def test_empty_graph_and_isolated_vertices():
    g = CSRGraph.empty(5, "empty")
    batches = [
        UpdateBatch(ops=()),
        UpdateBatch(ops=(("insert", 0, 4, 1.0),)),
        UpdateBatch(ops=(("insert", 1, 2, 1.0), ("insert", 2, 3, 1.0))),
        UpdateBatch(ops=()),
        UpdateBatch(ops=(("delete", 0, 4, None), ("delete", 2, 3, None),
                         ("delete", 1, 2, None))),
        UpdateBatch(ops=(("insert", 3, 4, 0.5),)),
    ]
    eng = assert_same_run(g, batches)
    assert eng.mate.tolist() == [-1, -1, -1, 4, 3]
    assert eng._len.tolist() == [0, 0, 0, 1, 1]


def test_isolated_vertices_join_a_graph():
    g = build_graph(8, [(0, 1, 1.0), (1, 2, 3.0), (2, 3, 1.0)])
    batches = [UpdateBatch(ops=(("insert", 5, 6, 2.0),
                                ("insert", 6, 7, 2.0),
                                ("insert", 3, 4, 5.0))),
               UpdateBatch(ops=(("insert", 2, 7, 2.0),
                                ("delete", 6, 7, None)))]
    assert_same_run(g, batches)


@pytest.mark.parametrize("name", ["mouse_gene", "kmer_U1a"])
def test_batch_weight_is_matching_weight_bitwise(name):
    """``BatchResult.weight`` sums the matched edges in the order
    ``matching_weight`` does, so the two agree to the last bit."""
    g = quality_instance(name)
    stream = EdgeStream.generate(g, num_batches=40, batch_size=16, seed=3)
    inc, rec = IncrementalLD(g), RecomputeLD(g)
    assert inc.weight == rec.weight == matching_weight(g, inc.mate)
    for batch in stream:
        a, b = inc.apply(batch), rec.apply(batch)
        snap = inc.snapshot()
        assert np.array_equal(inc.mate, rec.mate)
        assert a.weight == b.weight == matching_weight(snap, inc.mate)
        assert inc.weight == rec.weight == a.weight


# ------------------------------------------------------------------ #
# overlay index: sorted base keys + searchsorted
# ------------------------------------------------------------------ #


def test_overlay_lookup_at_the_ends():
    g = build_graph(7, [(0, 1, 1.5), (1, 3, 2.5), (4, 5, 3.5)])
    ov = OverlayGraph(g)
    assert ov.edge_weight(1, 0) == 1.5 and ov.has_edge(0, 1)
    assert ov.edge_weight(5, 4) == 3.5 and ov.has_edge(4, 5)
    for u, v in [(5, 6), (4, 6), (0, 2), (0, 6)]:  # absent, some past the end
        assert not ov.has_edge(u, v)
        with pytest.raises(KeyError):
            ov.edge_weight(u, v)
        with pytest.raises(KeyError):
            ov.delete(u, v)
        with pytest.raises(KeyError):
            ov.reweight(u, v, 1.0)
    ov.insert(5, 6, 4.5)
    ov.delete(4, 5)
    assert ov.edge_weights(np.array([6, 3, 0]),
                           np.array([5, 1, 1])).tolist() == [4.5, 2.5, 1.5]
    with pytest.raises(KeyError):
        ov.edge_weights(np.array([4]), np.array([5]))
    assert ov.edge_weights(np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64)).size == 0


def test_overlay_lookup_on_an_empty_base():
    ov = OverlayGraph(CSRGraph.empty(3, "empty"))
    assert not ov.has_edge(0, 2)
    ov.insert(0, 2, 1.0)
    assert ov.edge_weights(np.array([2]), np.array([0])).tolist() == [1.0]


def test_incremental_ld_init_reads_base_weights():
    g = rmat_graph(8, 6, seed=4)
    eng = IncrementalLD(g)
    assert eng.weight == ld_seq(g, collect_stats=False).weight


# ------------------------------------------------------------------ #
# boundary: non-finite weights, corrupt event logs
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_update_batch_rejects_non_finite_weights(bad):
    for kind in ("insert", "reweight"):
        with pytest.raises(ValueError, match="finite"):
            UpdateBatch(ops=((kind, 0, 1, bad),))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_overlay_rejects_non_finite_weights(bad):
    ov = OverlayGraph(build_graph(3, [(0, 1, 1.0)]))
    with pytest.raises(ValueError, match="finite"):
        ov.insert(1, 2, bad)
    with pytest.raises(ValueError, match="finite"):
        ov.reweight(0, 1, bad)
    assert ov.edge_weight(0, 1) == 1.0 and not ov.has_edge(1, 2)


def write_log(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


HEADER = json.dumps({"version": 1, "num_vertices": 4})


@pytest.mark.parametrize("lines,where", [
    ([HEADER, '{"ops": [["insert", 0, 1, 0.5]]}', '{"ops": [["ins'], 3),
    ([HEADER, "", "not json"], 3),
    (['{"version": 1, "num_'], 1),
    (['{"version": 1}'], 1),
    ([HEADER, '{"opz": []}'], 2),
    ([HEADER, '{"ops": [["insert", 0]]}'], 2),
    ([HEADER, '{"ops": [["insert", 0, 1, "NaN"]]}'], 2),
    ([HEADER, '{"ops": [["insert", 0, 0, 1.0]]}'], 2),
])
def test_corrupt_event_log_names_path_and_line(tmp_path, lines, where):
    path = write_log(tmp_path / "ev.jsonl", lines)
    with pytest.raises(ValueError) as info:
        EdgeStream.load(path)
    assert f"{path}:{where}:" in str(info.value)
