"""Whole-batch overlay updates: atomicity, per-op equivalence, the
engine's row patch fed by them, and the boundary that turns a bad
event log into a usage error.

``OverlayGraph.apply_batch`` checks an ordered batch against the live
graph before it changes anything, then commits it in one step.  The
differential tests here hold it to the one-op entry points
(``insert``/``delete``/``reweight``) applied in order on a second
overlay: same graph after every batch, same first failing op, and no
change at all when a batch is rejected.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.graph.generators import rmat_graph
from repro.graph.overlay import OverlayGraph
from repro.matching.ld_seq import ld_seq
from repro.matching.validate import matched_vertex_weight
from repro.streaming import (
    EdgeStream,
    IncrementalLD,
    RecomputeLD,
    UpdateBatch,
)

HOSTILE_LOG = Path(__file__).parent / "data" / "hostile_events.jsonl"
NONINTEGRAL_LOG = Path(__file__).parent / "data" / "nonintegral_events.jsonl"


def apply_one_by_one(ov: OverlayGraph, ops) -> tuple[int, Exception] | None:
    """Apply ``ops`` through the one-op entry points; returns the index
    and exception of the first op that raised."""
    for j, (kind, u, v, w) in enumerate(ops):
        try:
            if kind == "insert":
                ov.insert(u, v, w)
            elif kind == "delete":
                ov.delete(u, v)
            else:
                ov.reweight(u, v, w)
        except (KeyError, ValueError) as exc:
            return j, exc
    return None


def assert_same_graph(a: OverlayGraph, b: OverlayGraph,
                      rows=None) -> None:
    ea, eb = a.edges(), b.edges()
    for x, y in zip(ea, eb):
        assert np.array_equal(x, y)
    assert a.num_edges == b.num_edges == len(ea[0])
    assert np.array_equal(a.edge_weights(ea[0], ea[1]),
                          b.edge_weights(eb[0], eb[1]))
    for v in range(a.num_vertices) if rows is None else rows:
        (na, wa), (nb, wb) = a.row_arrays(v), b.row_arrays(v)
        assert np.array_equal(na, nb) and np.array_equal(wa, wb)


def check_batch(ov: OverlayGraph, ref: OverlayGraph, ops) -> OverlayGraph:
    """Apply ``ops`` to ``ov`` as a batch and to a copy of ``ref`` op
    by op; both must agree.  Returns the new reference."""
    n = ov.num_vertices
    trial = copy.deepcopy(ref)
    failed = apply_one_by_one(trial, ops)
    if failed is not None:
        j, exc = failed
        with pytest.raises(type(exc)) as info:
            ov.apply_batch(ops)
        assert info.value.args[0] == f"op {j}: {exc.args[0]}"
        assert_same_graph(ov, ref)  # nothing of the batch landed
        return ref
    before = {k: ref.edge_weight(k // n, k % n)
              for k in {min(u, v) * n + max(u, v) for _, u, v, _ in ops}
              if ref.has_edge(k // n, k % n)}
    keys, old_w, new_w = ov.apply_batch(ops)
    touched = sorted({min(u, v) * n + max(u, v) for _, u, v, _ in ops})
    assert keys.tolist() == touched
    for k, o, w in zip(touched, old_w.tolist(), new_w.tolist()):
        assert (o == before[k]) if k in before else np.isnan(o)
        if trial.has_edge(k // n, k % n):
            assert w == trial.edge_weight(k // n, k % n)
        else:
            assert np.isnan(w)
    assert_same_graph(ov, trial,
                      rows=sorted({x for k in touched for x in divmod(k, n)}))
    return trial


def draw_batch(data, ov: OverlayGraph, pool) -> tuple:
    """An ordered op batch over ``pool`` (base edges and non-edges), so
    one edge is often hit several times.  Most ops are valid for the
    state the earlier ops left; about one in ten is anything at all."""
    state = {e: ov.has_edge(*e) for e in pool}
    ops = []
    for _ in range(data.draw(st.integers(0, 8))):
        e = data.draw(st.sampled_from(pool))
        u, v = e if data.draw(st.booleans()) else e[::-1]
        if data.draw(st.integers(0, 9)) == 0:
            kind = data.draw(st.sampled_from(["insert", "delete",
                                              "reweight"]))
        elif state[e]:
            kind = data.draw(st.sampled_from(["delete", "reweight"]))
        else:
            kind = "insert"
        w = None if kind == "delete" else data.draw(
            st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.5]))
        ops.append((kind, u, v, w))
        state[e] = {"insert": True, "delete": False}.get(kind, state[e])
    return tuple(ops)


@given(data=st.data(), g=random_graphs(max_vertices=8, max_edges=14))
def test_batch_apply_matches_one_op_at_a_time(data, g):
    n = g.num_vertices
    bu, bv, _ = g.edge_array()
    pool = sorted(set(zip(bu.tolist(), bv.tolist()))
                  | {(a, b) for a in range(min(n, 4))
                     for b in range(a + 1, min(n, 6))})
    ov, ref = OverlayGraph(g), OverlayGraph(g)
    for _ in range(4):
        ref = check_batch(ov, ref, draw_batch(data, ref, pool))


@pytest.mark.parametrize("ops", [
    # insert -> delete -> insert of a new edge
    (("insert", 0, 5, 1.0), ("delete", 5, 0, None), ("insert", 0, 5, 2.0)),
    # reweight twice, of a base edge
    (("reweight", 0, 1, 3.0), ("reweight", 1, 0, 0.5)),
    # delete -> insert of a base edge, then a new edge next to it
    (("delete", 1, 2, None), ("insert", 2, 1, 2.0), ("insert", 2, 4, 1.0)),
    # an op that fails after valid ones on the same edge
    (("delete", 3, 4, None), ("insert", 3, 4, 1.0), ("insert", 4, 3, 1.0)),
    (("reweight", 0, 1, 1.0), ("delete", 0, 2, None)),
    (("insert", 0, 1, 1.0),),
    (("insert", 0, 9, 1.0),),
    (("insert", 2, 2, 1.0),),
    (("reweight", 0, 1, float("nan")),),
    (("insert", 0, 10**30, 1.0),),
])
def test_in_batch_sequences(ops):
    g = build_graph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)])
    ov, ref = OverlayGraph(g), OverlayGraph(g)
    # Overlay edges too: batch two works on what batch one inserted.
    ref = check_batch(ov, ref, (("insert", 2, 3, 1.5), ("insert", 0, 4, 2.5),
                                ("reweight", 3, 4, 0.75)))
    ref = check_batch(ov, ref, ops)
    ref = check_batch(ov, ref, (("delete", 2, 3, None),
                                ("reweight", 0, 4, 0.125)))
    ref = check_batch(ov, ref, ops)


def test_unknown_op_kind_rejects_the_batch():
    g = build_graph(3, [(0, 1, 1.0)])
    ov = OverlayGraph(g)
    with pytest.raises(ValueError, match="op 1: unknown op kind 'explode'"):
        ov.apply_batch((("reweight", 0, 1, 2.0), ("explode", 0, 1, 1.0)))
    assert_same_graph(ov, OverlayGraph(g))


@pytest.mark.parametrize("tied", [False, True])
def test_patched_rows_are_the_sorted_overlay_rows(tied):
    """The row patch alone, without a repair: every changed row in the
    pool must be the overlay's row sorted by ``(w, eid)`` descending.
    A wrong row can keep the repair from terminating, so this checks
    the patch where a mistake fails rather than hangs."""
    g = rmat_graph(9, 8, seed=3)
    stream = EdgeStream.generate(g, num_batches=20, batch_size=32, seed=5)
    batches = list(stream)
    if tied:
        g = g.reweighted((g.canonical_edge_ids() % 3 + 1).astype(float))
        batches = [UpdateBatch(ops=tuple(
            (k, u, v, None if w is None else float(1 + int(w * 3) % 3))
            for k, u, v, w in b.ops)) for b in batches]
    eng, n = IncrementalLD(g), g.num_vertices
    for batch in batches:
        rows, edits = eng._apply_batch(batch)
        eng._patch_rows(rows, edits)
        for v in rows.tolist():
            nbrs, ws = eng.graph.row_arrays(v)
            order = np.lexsort((-(np.minimum(v, nbrs) * n
                                  + np.maximum(v, nbrs)), -ws))
            s, e = eng._start[v], eng._start[v] + eng._len[v]
            assert np.array_equal(eng._nbr[s:e], nbrs[order])
            assert np.array_equal(eng._w[s:e], ws[order])


# ------------------------------------------------------------------ #
# engines: a rejected batch changes nothing
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("engine", [IncrementalLD, RecomputeLD])
def test_rejected_batch_leaves_engine_untouched(engine):
    path = build_graph(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0),
                           (3, 4, 0.5)])
    eng = engine(path)
    edges, m = eng.graph.edges(), eng.graph.num_edges
    mate = eng.mate.copy()
    bad = UpdateBatch(ops=(("insert", 0, 4, 2.0), ("delete", 0, 3, None)))
    with pytest.raises(KeyError) as info:
        eng.apply(bad)
    for x, y in zip(eng.graph.edges(), edges):
        assert np.array_equal(x, y)
    assert eng.graph.num_edges == m
    assert np.array_equal(eng.mate, mate)
    assert info.value.args[0] == "op 1: edge (0, 3) not present"
    res = eng.apply(UpdateBatch(ops=(("reweight", 1, 2, 3.0),)))
    assert res.index == 0
    assert np.array_equal(
        eng.mate, ld_seq(eng.snapshot(), collect_stats=False).mate)


# ------------------------------------------------------------------ #
# CLI boundary: a bad event log is a usage error
# ------------------------------------------------------------------ #


def test_cli_rejects_committed_hostile_log(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main(["stream", "-d", "GAP-kron", "--quality",
              "--events", str(HOSTILE_LOG)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: batch 0 op 1: edge (0, 3) not present" in err


@pytest.mark.parametrize("ops, message", [
    ([["insert", 0, 600, 1.0]], "op 0: vertex out of range"),
    ([["insert", 0, 10**30, 1.0]], "op 0: vertex out of range"),
    ([["insert", 0, 4, 1.0], ["insert", 4, 0, 1.0]],
     "op 1: edge (4, 0) already present"),
    ([["reweight", 0, 3, 1.0]], "op 0: edge (0, 3) not present"),
])
def test_cli_rejects_bad_ops_in_a_later_batch(tmp_path, capsys, ops,
                                              message):
    from repro.cli import main

    log = tmp_path / "events.jsonl"
    log.write_text("\n".join(json.dumps(doc) for doc in [
        {"version": 1, "num_vertices": 512},
        {"ops": [["insert", 0, 2, 0.5]]},
        {"ops": ops},
    ]) + "\n")
    with pytest.raises(SystemExit) as info:
        main(["stream", "-d", "GAP-kron", "--quality", "--events",
              str(log)])
    assert info.value.code == 2
    assert f"error: batch 1 {message}" in capsys.readouterr().err


# ------------------------------------------------------------------ #
# event logs: vertex ids are integers, never truncated
# ------------------------------------------------------------------ #


def write_events(path: Path, header: dict, *batches: list) -> Path:
    path.write_text("\n".join(
        [json.dumps(header)] + [json.dumps({"ops": ops}) for ops in batches]
    ) + "\n")
    return path


@pytest.mark.parametrize("op", [
    ["insert", 0.9, 4.7, 0.5],
    ["insert", 0, 4.5, 0.5],
    ["reweight", 2, -0.5, 0.5],
    ["delete", 0, float("inf")],
    ["delete", True, 3],
    ["insert", "1", 2, 0.5],
    ["insert", 0, None, 0.5],
])
def test_event_log_rejects_non_integral_vertex_ids(tmp_path, op):
    path = write_events(tmp_path / "ev.jsonl",
                        {"version": 1, "num_vertices": 8},
                        [["insert", 0, 1, 0.5]], [op])
    with pytest.raises(ValueError) as info:
        EdgeStream.load(path)
    assert f"{path}:3: bad batch" in str(info.value)
    assert "op 0: vertex id" in str(info.value)


@pytest.mark.parametrize("num_vertices", [512.5, "512", True, None])
def test_event_log_rejects_non_integral_num_vertices(tmp_path,
                                                     num_vertices):
    path = write_events(tmp_path / "ev.jsonl",
                        {"version": 1, "num_vertices": num_vertices})
    with pytest.raises(ValueError, match="header has no integer "
                                         "num_vertices") as info:
        EdgeStream.load(path)
    assert f"{path}:1:" in str(info.value)


def test_event_log_takes_integral_floats_as_ids(tmp_path):
    path = write_events(tmp_path / "ev.jsonl",
                        {"version": 1, "num_vertices": 8.0},
                        [["insert", 0.0, 4.0, 0.5], ["delete", 2, 3.0]])
    stream = EdgeStream.load(path)
    assert stream.num_vertices == 8
    ops = stream.batches[0].ops
    assert ops == (("insert", 0, 4, 0.5), ("delete", 2, 3, None))
    assert all(type(x) is int for _, u, v, _ in ops for x in (u, v))


def test_cli_rejects_committed_nonintegral_log(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main(["stream", "-d", "GAP-kron", "--quality",
              "--events", str(NONINTEGRAL_LOG)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {NONINTEGRAL_LOG}:2: bad batch" in err
    assert "vertex id 0.9 is not an integer" in err


# ------------------------------------------------------------------ #
# matched_vertex_weight: same elements, same order, same bits
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("case", ["random", "all_free", "all_matched"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matched_vertex_weight_is_the_boolean_index_sum(case, seed):
    rng = np.random.default_rng(seed)
    n = 4097
    mw = rng.random(n) * 10.0 ** rng.integers(-6, 6, n)
    perm = rng.permutation(n - 1)
    mate = np.full(n, -1, dtype=np.int64)
    if case != "all_free":
        a, b = perm[0::2], perm[1::2]
        if case == "random":
            keep = rng.random(len(a)) < 0.6
            a, b = a[keep], b[keep]
        mate[a], mate[b] = b, a
    want = float(mw[np.arange(n) < mate].sum())
    assert matched_vertex_weight(mate, mw) == want
