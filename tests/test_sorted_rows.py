"""One sorted-row layout per graph, and the matchers that share it.

``CSRGraph.sorted_row_order`` is the graph's only per-row ``(w, eid)``
sort; ``PointerIndex`` (LD-SEQ, LD-GPU), ``suitor_seq``, the SR-OMP /
SR-GPU rounds and ``IncrementalLD`` all read it.
``CSRGraph.sorted_edge_order`` is its only global edge sort;
``greedy_matching`` scans it in chunked vectorised rounds.  LD on the
sorted-row cursors, the Suitor variants and greedy read their matched weight
in O(n) off their own state.  The reference oracles below are the
implementations those replaced — a fresh lexsort per build or run,
Suitor's full-row scan per proposal, the SR rounds' re-scan of every
active row, greedy's per-edge loop, the O(m) ``matching_weight`` — and
every test pits the shared-layout code against them bit for bit.
"""

from __future__ import annotations

import copy
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from conftest import build_graph, random_graphs
from segment_oracle import gather_rows, ld_seq_segment, segment_argmax_lex
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.matching import greedy as greedy_mod
from repro.matching import suitor as suitor_mod
from repro.matching.coreset import (
    coreset_matching,
    coreset_shard,
    extract_shard,
)
from repro.matching.cugraph_sim import cugraph_mg_sim
from repro.matching.greedy import greedy_matching
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import ld_seq
from repro.matching.pointer_index import PointerIndex
from repro.matching.suitor import suitor_gpu_sim, suitor_omp_sim, suitor_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import matching_weight
from repro.partition.vertex import (
    edge_balanced_partition,
    vertex_balanced_partition,
)
from repro.streaming import IncrementalLD


# ------------------------------------------------------------------ #
# reference oracles (the code the shared layout replaced)
# ------------------------------------------------------------------ #


def lexsort_row_order(g: CSRGraph) -> np.ndarray:
    """A fresh (row asc, w desc, eid desc) lexsort of the whole graph."""
    rows = np.repeat(np.arange(g.num_vertices, dtype=np.int64), g.degrees)
    return np.lexsort((-g.canonical_edge_ids(), -g.weights, rows))


def partition_sorted_indices(g: CSRGraph, start: int, stop: int):
    """The per-partition sort ``PointerIndex`` used to run per build:
    local indptr plus suffix adjacency views from the partition's base."""
    base = int(g.indptr[start])
    indptr = g.indptr[start:stop + 1] - base
    m = int(indptr[-1])
    rows = np.repeat(np.arange(stop - start, dtype=np.int64),
                     np.diff(indptr))
    eids = g.canonical_edge_ids()[base:]
    order = np.lexsort((-eids[:m], -g.weights[base:][:m], rows))
    return indptr, g.indices[base:][:m][order]


def per_row_lexsort_order(g: CSRGraph) -> np.ndarray:
    """A row-by-row sort loop: one lexsort per row."""
    eids = g.canonical_edge_ids()
    order = np.arange(g.num_directed_edges, dtype=np.int64)
    for v in range(g.num_vertices):
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        if hi > lo:
            order[lo:hi] = lo + np.lexsort((-eids[lo:hi],
                                            -g.weights[lo:hi]))
    return order


def suitor_full_scan(g: CSRGraph) -> np.ndarray:
    """Sequential Suitor re-scanning the proposer's whole row per bid."""
    n = g.num_vertices
    indptr, indices, weights = g.indptr, g.indices, g.weights
    eids = g.canonical_edge_ids()
    suitor = np.full(n, UNMATCHED, dtype=np.int64)
    ws_w = np.full(n, -np.inf)
    ws_e = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        u = start
        while u != UNMATCHED:
            best_v, best_w, best_e = UNMATCHED, -np.inf, -1
            for k in range(indptr[u], indptr[u + 1]):
                v = int(indices[k])
                w, e = weights[k], eids[k]
                if (w, e) <= (ws_w[v], ws_e[v]):
                    continue
                if (w, e) > (best_w, best_e):
                    best_v, best_w, best_e = v, w, e
            if best_v == UNMATCHED:
                break
            displaced = int(suitor[best_v])
            suitor[best_v] = u
            ws_w[best_v], ws_e[best_v] = best_w, best_e
            u = displaced
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    has = np.nonzero(suitor != UNMATCHED)[0]
    mutual = has[suitor[suitor[has]] == has]
    mate[mutual] = suitor[mutual]
    return mate


def suitor_rounds_rescan(g: CSRGraph):
    """SR-OMP/SR-GPU's former rounds: every active row is re-gathered
    and re-scanned by a masked lexicographic arg-max each round.  Same
    return shape as ``suitor._suitor_rounds``; the weight is the O(m)
    ``matching_weight``."""
    n = g.num_vertices
    indptr, indices, weights = g.indptr, g.indices, g.weights
    eids = g.canonical_edge_ids()
    suitor = np.full(n, UNMATCHED, dtype=np.int64)
    ws_w = np.full(n, -np.inf)
    ws_e = np.full(n, -1, dtype=np.int64)
    active = np.arange(n, dtype=np.int64)
    frontiers = []
    rounds = 0
    while len(active):
        frontiers.append(active)
        rounds += 1
        sub_indptr, pos = gather_rows(indptr, active)
        nbrs = indices[pos]
        w = weights[pos]
        e = eids[pos]
        beats = (w > ws_w[nbrs]) | ((w == ws_w[nbrs]) & (e > ws_e[nbrs]))
        primary = np.where(beats, w, -np.inf)
        win = segment_argmax_lex(primary, e, sub_indptr)
        has = win >= 0
        proposers = active[has]
        targets = nbrs[win[has]]
        pw = w[win[has]]
        pe = e[win[has]]
        order = np.lexsort((pe, pw, targets))
        targets_s = targets[order]
        last = np.ones(len(targets_s), dtype=bool)
        last[:-1] = targets_s[1:] != targets_s[:-1]
        winners_idx = order[last]
        tgt = targets[winners_idx]
        src = proposers[winners_idx]
        displaced = suitor[tgt]
        suitor[tgt] = src
        ws_w[tgt] = pw[winners_idx]
        ws_e[tgt] = pe[winners_idx]
        lost = proposers[~np.isin(np.arange(len(proposers)), winners_idx)]
        redo = displaced[displaced != UNMATCHED]
        active = np.unique(np.concatenate([lost, redo]))
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    has = np.nonzero(suitor != UNMATCHED)[0]
    mutual = has[suitor[suitor[has]] == has]
    mate[mutual] = suitor[mutual]
    return mate, matching_weight(g, mate), frontiers, rounds


def lexsort_edges(g: CSRGraph):
    """A per-run ``edge_array`` + lexsort: ``(u, v, w)`` descending by
    ``(w, eid)``, as greedy used to sort every run."""
    u, v, w = g.edge_array()
    order = np.lexsort((-(u * np.int64(max(g.num_vertices, 1)) + v), -w))
    return u[order], v[order], w[order]


def greedy_per_edge(g: CSRGraph) -> np.ndarray:
    """Greedy's former one-Python-step-per-edge scan; returns ``mate``."""
    n = g.num_vertices
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    u, v, w = lexsort_edges(g)
    for k in range(len(w)):
        a, b = int(u[k]), int(v[k])
        if mate[a] == UNMATCHED and mate[b] == UNMATCHED:
            mate[a], mate[b] = b, a
    return mate


# ------------------------------------------------------------------ #
# inputs
# ------------------------------------------------------------------ #


def tie_heavy(g: CSRGraph) -> CSRGraph:
    """Weights from {1, 2, 3} keyed on the canonical edge id."""
    if g.num_directed_edges == 0:
        return g
    return g.reweighted((g.canonical_edge_ids() % 3 + 1).astype(float))


def path(n: int, weights) -> CSRGraph:
    u = np.arange(n - 1)
    return build_graph(n, list(zip(u.tolist(), (u + 1).tolist(),
                                   np.asarray(weights, float).tolist())))


FIXED = {
    "empty0": CSRGraph.empty(0),
    "empty5": CSRGraph.empty(5),
    "single_edge": build_graph(2, [(0, 1, 2.5)]),
    "star_ties": build_graph(9, [(0, i, 1.0) for i in range(1, 9)]),
    "star": build_graph(9, [(0, i, float(i)) for i in range(1, 9)]),
    "disconnected": build_graph(
        9, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (4, 5, 3.0), (5, 6, 2.0), (4, 6, 3.0)]),
    "isolated_ends": build_graph(
        8, [(1, 2, 0.5), (2, 3, 0.9), (1, 3, 0.9), (4, 6, 0.25)]),
    "isolated_middle": build_graph(
        7, [(0, 1, 1.0), (0, 2, 1.0), (5, 6, 2.0), (0, 6, 2.0)]),
    "path_ties": path(200, np.ones(199)),
    "path_descending": path(300, np.arange(299, 0, -1)),
    "rmat_ties": tie_heavy(rmat_graph(8, 6, seed=9, name="rmat")),
}


@pytest.fixture(params=sorted(FIXED), scope="module")
def fixed_graph(request):
    return FIXED[request.param]


# ------------------------------------------------------------------ #
# the memoised order
# ------------------------------------------------------------------ #


def assert_order_matches(g: CSRGraph) -> None:
    order = g.sorted_row_order()
    assert np.array_equal(order, lexsort_row_order(g))
    assert np.array_equal(order, per_row_lexsort_order(g))


@given(g=random_graphs(tie_prone=True))
def test_order_equals_fresh_lexsort_tie_prone(g):
    assert_order_matches(g)
    assert_order_matches(tie_heavy(g))


@given(g=random_graphs())
def test_order_equals_fresh_lexsort(g):
    assert_order_matches(g)


def test_order_equals_fresh_lexsort_fixed(fixed_graph):
    assert_order_matches(fixed_graph)


def test_order_memoised_readonly_int32(medium_graph):
    order = medium_graph.sorted_row_order()
    assert order is medium_graph.sorted_row_order()
    assert not order.flags.writeable
    assert order.dtype == np.int32


def test_order_rebuilt_after_weights_reassigned(medium_graph):
    g = copy.copy(medium_graph)
    before = g.sorted_row_order()
    g.weights = (g.canonical_edge_ids() % 7 + 1).astype(float)
    after = g.sorted_row_order()
    assert after is not before
    assert np.array_equal(after, lexsort_row_order(g))
    assert not np.array_equal(after, before)
    # The original graph's memo is untouched.
    assert np.array_equal(medium_graph.sorted_row_order(),
                          lexsort_row_order(medium_graph))


@pytest.mark.parametrize("attr", ["indptr", "indices", "weights"])
def test_every_source_array_keys_the_memo(attr, triangle):
    g = copy.copy(triangle)
    first = g.sorted_row_order()
    setattr(g, attr, getattr(g, attr).copy())  # same values, new array
    again = g.sorted_row_order()
    assert again is not first
    assert np.array_equal(again, first)
    assert again is g.sorted_row_order()


def test_eids_and_degrees_rebuilt_after_reassignment(path_graph):
    g = copy.copy(path_graph)
    eids, degrees = g.canonical_edge_ids(), g.degrees
    g.indptr = g.indptr.copy()
    assert g.degrees is not degrees
    assert g.canonical_edge_ids() is not eids
    assert np.array_equal(g.canonical_edge_ids(), eids)


def test_pickle_drops_memos(medium_graph):
    from repro.harness.parallel import _GraphRef
    from repro.telemetry.provenance import graph_fingerprint

    g = copy.copy(medium_graph)
    cold = pickle.dumps(g)
    cold_ref = pickle.dumps(_GraphRef(inline=g))
    g.degrees, g.canonical_edge_ids(), g.sorted_row_order()
    g.sorted_edge_order(), graph_fingerprint(g)
    assert len(pickle.dumps(g)) == len(cold)
    assert len(pickle.dumps(_GraphRef(inline=g))) == len(cold_ref)
    back = pickle.loads(pickle.dumps(g))
    assert back._degrees is back._canonical_eids is back._orders is None
    assert back._fingerprint is None
    assert np.array_equal(back.sorted_row_order(), g.sorted_row_order())
    # Pickling leaves the live graph's own memos in place.
    assert g._orders is not None


# ------------------------------------------------------------------ #
# the memoised global edge order
# ------------------------------------------------------------------ #


def assert_edge_order_matches(g: CSRGraph) -> None:
    pos = g.sorted_edge_order()
    u, v = g.sorted_edge_endpoints()
    w = g.weights[pos]
    for got, want in zip((u, v, w), lexsort_edges(g)):
        assert np.array_equal(got, want)
    assert np.array_equal(g.indices[pos], v)
    assert np.array_equal(g.weights[pos], w)


@given(g=random_graphs(tie_prone=True))
def test_edge_order_equals_per_run_lexsort_tie_prone(g):
    assert_edge_order_matches(g)
    assert_edge_order_matches(tie_heavy(g))


@given(g=random_graphs())
def test_edge_order_equals_per_run_lexsort(g):
    assert_edge_order_matches(g)


def test_edge_order_equals_per_run_lexsort_fixed(fixed_graph):
    assert_edge_order_matches(fixed_graph)


def test_orders_past_one_radix_digit():
    # Vertex ids above 2^16 take the row regrouping's second digit.
    rng = np.random.default_rng(3)
    n = 70_000
    u = rng.integers(0, n, 3000)
    v = rng.integers(0, n, 3000)
    g = build_graph(n, [(a, b, float(w)) for a, b, w in
                        zip(u.tolist(), v.tolist(),
                            rng.integers(1, 4, 3000).tolist()) if a != b])
    assert_order_matches(g)
    assert_edge_order_matches(g)


def test_edge_order_memoised_readonly_int32(medium_graph):
    pos = medium_graph.sorted_edge_order()
    assert pos is medium_graph.sorted_edge_order()
    assert not pos.flags.writeable
    assert pos.dtype == np.int32
    assert len(pos) == medium_graph.num_edges
    # One build serves both orders, whichever is asked for first.
    g = copy.copy(medium_graph)
    g._orders = None
    assert g.sorted_edge_order() is g.sorted_edge_order()
    memo = g._orders
    assert np.array_equal(g.sorted_row_order(), lexsort_row_order(g))
    assert g._orders is memo


@pytest.mark.parametrize("attr", ["indptr", "indices", "weights"])
def test_every_source_array_keys_the_edge_order(attr, medium_graph):
    g = copy.copy(medium_graph)
    first = g.sorted_edge_order()
    setattr(g, attr, getattr(g, attr).copy())  # same values, new array
    again = g.sorted_edge_order()
    assert again is not first
    assert np.array_equal(again, first)
    g.weights = (g.canonical_edge_ids() % 7 + 1).astype(float)
    assert_edge_order_matches(g)
    assert_edge_order_matches(medium_graph)  # the original is untouched


# ------------------------------------------------------------------ #
# PointerIndex: slices of the one layout
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("devices", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("partition", ["edge", "vertex"])
def test_partition_slices_equal_per_partition_builds(
        medium_graph, devices, partition):
    for g in (medium_graph, tie_heavy(medium_graph)):
        if partition == "edge":
            offsets = edge_balanced_partition(g.indptr, devices)
        else:
            offsets = vertex_balanced_partition(g.num_vertices, devices)
        for start, stop in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
            idx = PointerIndex(g, start, stop)
            indptr, sorted_indices = partition_sorted_indices(g, start, stop)
            assert idx.row_offset == start
            assert np.array_equal(idx.indptr, indptr)
            assert np.array_equal(idx.sorted_indices, sorted_indices)


def test_index_slices_fixed(fixed_graph):
    n = fixed_graph.num_vertices
    for start, stop in ((0, n), (0, n // 2), (n // 2, n)):
        idx = PointerIndex(fixed_graph, start, stop)
        indptr, sorted_indices = partition_sorted_indices(
            fixed_graph, start, stop)
        assert np.array_equal(idx.indptr, indptr)
        assert np.array_equal(idx.sorted_indices, sorted_indices)


def test_incremental_ld_rows_are_the_shared_order(medium_graph):
    g = tie_heavy(medium_graph)
    eng = IncrementalLD(g)
    order = lexsort_row_order(g)
    m2 = g.num_directed_edges
    # the pool starts as the shared order, row v at indptr[v]
    assert np.array_equal(eng._start, g.indptr[:-1])
    assert np.array_equal(eng._len, g.degrees)
    assert np.array_equal(eng._nbr[:m2], g.indices[order])
    assert np.array_equal(eng._w[:m2], g.weights[order])
    rows = np.repeat(np.arange(g.num_vertices), g.degrees)
    nbrs = eng._nbr[:m2].astype(np.int64)
    eids = np.minimum(rows, nbrs) * g.num_vertices + np.maximum(rows, nbrs)
    assert np.array_equal(eids, g.canonical_edge_ids()[order])


# ------------------------------------------------------------------ #
# Suitor: cursor walk vs full-row scan
# ------------------------------------------------------------------ #


@given(g=random_graphs(tie_prone=True))
def test_suitor_cursor_equals_full_scan_tie_prone(g):
    for h in (g, tie_heavy(g)):
        assert np.array_equal(suitor_seq(h).mate, suitor_full_scan(h))


@given(g=random_graphs())
def test_suitor_cursor_equals_full_scan(g):
    assert np.array_equal(suitor_seq(g).mate, suitor_full_scan(g))


def test_suitor_cursor_equals_full_scan_fixed(fixed_graph):
    assert np.array_equal(suitor_seq(fixed_graph).mate,
                          suitor_full_scan(fixed_graph))


# ------------------------------------------------------------------ #
# SR-OMP / SR-GPU: cursor rounds vs the per-round re-scan
# ------------------------------------------------------------------ #


def assert_sr_identical(g: CSRGraph) -> None:
    mate, weight, frontiers, rounds = suitor_mod._suitor_rounds(g)
    o_mate, o_weight, o_frontiers, o_rounds = suitor_rounds_rescan(g)
    assert mate.tobytes() == o_mate.tobytes()
    assert weight.hex() == o_weight.hex()
    assert rounds == o_rounds
    assert len(frontiers) == len(o_frontiers)
    for f, o in zip(frontiers, o_frontiers):
        assert f.dtype == o.dtype and np.array_equal(f, o)
    # The modeled times see only the frontiers, so they match bit for bit.
    for fn in (suitor_omp_sim, suitor_gpu_sim):
        r = fn(g)
        with mock.patch.object(suitor_mod, "_suitor_rounds",
                               suitor_rounds_rescan):
            o = fn(g)
        assert r.mate.tobytes() == o.mate.tobytes()
        assert r.weight.hex() == o.weight.hex()
        assert r.iterations == o.iterations
        assert r.sim_time.hex() == o.sim_time.hex()
        assert r.stats == o.stats
        if o.timeline is None:
            assert r.timeline is None
        else:
            assert r.timeline.totals == o.timeline.totals


@given(g=random_graphs(tie_prone=True))
def test_sr_cursor_rounds_equal_rescan_tie_prone(g):
    for h in (g, tie_heavy(g)):
        assert_sr_identical(h)


@given(g=random_graphs())
def test_sr_cursor_rounds_equal_rescan(g):
    assert_sr_identical(g)


def test_sr_cursor_rounds_equal_rescan_fixed(fixed_graph):
    assert_sr_identical(fixed_graph)


def test_sr_cursor_rounds_equal_rescan_medium(medium_graph):
    assert_sr_identical(medium_graph)
    assert_sr_identical(tie_heavy(medium_graph))


# ------------------------------------------------------------------ #
# greedy: chunked rounds vs the per-edge loop
# ------------------------------------------------------------------ #


def assert_greedy_identical(g: CSRGraph) -> None:
    r = greedy_matching(g)
    mate = greedy_per_edge(g)
    assert np.array_equal(r.mate, mate)
    # Bit for bit: the matching's weight, summed as matching_weight does.
    assert r.weight.hex() == matching_weight(g, mate).hex()


@pytest.fixture(params=[4, 64, None], ids=["chunk4", "chunk64", "default"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(greedy_mod, "_CHUNK", request.param)
    return request.param


@given(g=random_graphs(tie_prone=True))
def test_greedy_rounds_equal_per_edge_tie_prone(g):
    for h in (g, tie_heavy(g)):
        assert_greedy_identical(h)


@given(g=random_graphs(max_vertices=40, max_edges=150))
def test_greedy_rounds_equal_per_edge(g):
    assert_greedy_identical(g)


def test_greedy_rounds_equal_per_edge_fixed(fixed_graph, chunk):
    assert_greedy_identical(fixed_graph)


def test_greedy_rounds_equal_per_edge_multi_chunk(medium_graph, chunk):
    assert_greedy_identical(medium_graph)
    assert_greedy_identical(tie_heavy(medium_graph))


def test_greedy_long_chain_falls_back_exactly():
    # Longer than a default chunk: every round resolves ~1 edge, so each
    # chunk is finished by the sequential scan.
    n = 3 * greedy_mod._CHUNK
    assert_greedy_identical(path(n, np.arange(n - 1, 0, -1)))


# ------------------------------------------------------------------ #
# matched weight: O(n) off the run's own state vs matching_weight
# ------------------------------------------------------------------ #

#: Every LD-GPU shape: 1-8 devices, both partitions, resident and
#: batched, and batches streamed through the dual buffers.
LD_GPU_SHAPES = [
    dict(num_devices=d, partition=p, **extra)
    for d in range(1, 9)
    for p in ("edge", "vertex")
    for extra in ({}, {"num_batches": 2},
                  {"num_batches": 2, "force_streaming": True})
]


def assert_weight_exact(g: CSRGraph, shapes=LD_GPU_SHAPES) -> None:
    runs = [ld_seq(g), ld_seq_segment(g), suitor_seq(g),
            greedy_matching(g), cugraph_mg_sim(g, num_devices=3),
            coreset_matching(g, num_shards=3),
            coreset_matching(g, num_shards=3, base="ld"),
            suitor_omp_sim(g), suitor_gpu_sim(g)]
    runs += [ld_gpu(g, **shape) for shape in shapes]
    for r in runs:
        # ``==``, not isclose: the same elements summed in the same order.
        assert r.weight == matching_weight(g, r.mate), r.algorithm


#: A spread of the shapes for the many small hypothesis examples.
SOME_SHAPES = [s for s in LD_GPU_SHAPES if s["num_devices"] in (1, 3, 8)]


@given(g=random_graphs(tie_prone=True))
def test_weight_exact_tie_prone(g):
    for h in (g, tie_heavy(g)):
        assert_weight_exact(h, SOME_SHAPES)


@given(g=random_graphs())
def test_weight_exact(g):
    assert_weight_exact(g, SOME_SHAPES)


def test_weight_exact_fixed(fixed_graph):
    assert_weight_exact(fixed_graph)


def test_weight_exact_medium(medium_graph):
    assert_weight_exact(medium_graph, SOME_SHAPES)


@pytest.mark.parametrize("base", ["greedy", "ld"])
def test_coreset_shard_weight_exact(medium_graph, base):
    for i in range(4):
        r = coreset_shard(medium_graph, i, 4, base=base)
        sub, _ = extract_shard(medium_graph, i, 4)
        assert r.weight == matching_weight(sub, r.mate)


def test_weight_exact_medium(medium_graph):
    assert_weight_exact(medium_graph)
    assert_weight_exact(tie_heavy(medium_graph))
