"""The graph's one layout memo: what the runs read, built once.

``CSRGraph._orders`` holds the sorted row and edge orders together with
the arrays the runs read from them: the neighbour id of every sorted row
slot (``sorted_neighbors``, which ``PointerIndex`` slices and
``IncrementalLD`` copies) and greedy's sorted edge endpoints
(``sorted_edge_endpoints``).  The build sorts by weight alone on a graph
whose rows ascend (position order is canonical-eid order there) and
falls back to an eid-keyed sort otherwise, so no sweep algorithm builds
the canonical edge ids of a graph.  ``MutualIndex`` keeps each mutual
pair once without a sort-based dedup, in the oracle's order.
"""

from __future__ import annotations

import copy
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.matching.greedy import greedy_matching
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import find_mutual_pairs, ld_seq
from repro.matching.pointer_index import MutualIndex, PointerIndex
from repro.matching.suitor import suitor_gpu_sim, suitor_omp_sim, suitor_seq
from repro.matching.types import UNMATCHED
from repro.streaming import IncrementalLD
from test_sorted_rows import lexsort_edges, lexsort_row_order, tie_heavy


def fresh(g: CSRGraph) -> CSRGraph:
    """``g`` rebuilt through ``from_coo``, with no memo filled."""
    u, v, w = g.edge_array()
    return from_coo(u, v, w, num_vertices=g.num_vertices, name=g.name)


def reversed_rows(g: CSRGraph) -> CSRGraph:
    """The same graph with every row's entries in descending order."""
    pos = np.lexsort((-g.indices, np.repeat(np.arange(g.num_vertices),
                                            g.degrees)))
    return CSRGraph(g.indptr, g.indices[pos], g.weights[pos], g.name)


def assert_layout_matches(g: CSRGraph) -> None:
    order = lexsort_row_order(g)
    assert np.array_equal(g.sorted_row_order(), order)
    assert np.array_equal(g.sorted_neighbors(), g.indices[order])
    u, v = g.sorted_edge_endpoints()
    want_u, want_v, want_w = lexsort_edges(g)
    assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
    assert np.array_equal(g.weights[g.sorted_edge_order()], want_w)


# ------------------------------------------------------------------ #
# the memo arrays
# ------------------------------------------------------------------ #


def test_memo_arrays_are_int32_and_readonly(medium_graph):
    g = fresh(medium_graph)
    arrays = (g.sorted_row_order(), g.sorted_edge_order(),
              g.sorted_neighbors(), *g.sorted_edge_endpoints())
    for arr in arrays:
        assert arr.dtype == np.int32
        assert not arr.flags.writeable
    assert_layout_matches(g)


@pytest.mark.parametrize("first", ["sorted_row_order", "sorted_edge_order",
                                   "sorted_neighbors",
                                   "sorted_edge_endpoints"])
def test_memo_arrays_are_built_once_together(first, medium_graph):
    g = fresh(medium_graph)
    with mock.patch.object(CSRGraph, "_build_layout", autospec=True,
                           side_effect=CSRGraph._build_layout) as build:
        getattr(g, first)()
        memo = g._orders
        rows, edges = g.sorted_row_order(), g.sorted_edge_order()
        nbrs, (u, v) = g.sorted_neighbors(), g.sorted_edge_endpoints()
    assert build.call_count == 1
    assert g._orders is memo
    assert all(a is b for a, b in zip(memo[1], (rows, edges, nbrs, u, v)))


@pytest.mark.parametrize("attr", ["indptr", "indices", "weights"])
def test_memo_arrays_rebuilt_when_a_source_is_reassigned(attr, triangle):
    g = copy.copy(triangle)
    nbrs, (u, v) = g.sorted_neighbors(), g.sorted_edge_endpoints()
    setattr(g, attr, getattr(g, attr).copy())  # same values, new array
    again, (u2, v2) = g.sorted_neighbors(), g.sorted_edge_endpoints()
    assert again is not nbrs and u2 is not u and v2 is not v
    assert np.array_equal(again, nbrs)
    assert np.array_equal(u2, u) and np.array_equal(v2, v)


def test_memo_arrays_rebuilt_after_weights_change(medium_graph):
    g = copy.copy(fresh(medium_graph))
    before = g.sorted_neighbors()
    g.weights = (g.canonical_edge_ids() % 7 + 1).astype(float)
    assert g.sorted_neighbors() is not before
    assert_layout_matches(g)


def test_pickle_drops_the_memo_arrays(medium_graph):
    g = fresh(medium_graph)
    cold = pickle.dumps(g)
    g.sorted_neighbors(), g.sorted_edge_endpoints()
    assert len(pickle.dumps(g)) == len(cold)
    back = pickle.loads(pickle.dumps(g))
    assert back._orders is None
    assert np.array_equal(back.sorted_neighbors(), g.sorted_neighbors())
    assert g._orders is not None


def test_pointer_index_and_pool_read_the_memo(medium_graph):
    g = fresh(medium_graph)
    nbrs = g.sorted_neighbors()
    lo, hi = int(g.indptr[100]), int(g.indptr[300])
    idx = PointerIndex(g, 100, 300)
    assert idx.sorted_indices.base is nbrs  # a slice, not a gather
    assert np.array_equal(idx.sorted_indices, nbrs[lo:hi])
    eng = IncrementalLD(g)
    assert np.array_equal(eng._nbr[:len(nbrs)], nbrs)
    assert eng._nbr.dtype == nbrs.dtype


# ------------------------------------------------------------------ #
# the build: weight-only sort on ascending rows, eid fallback otherwise
# ------------------------------------------------------------------ #


RUNS = {
    "ld_seq": ld_seq,
    "ld_gpu@1": lambda g: ld_gpu(g, num_devices=1),
    "ld_gpu@4": lambda g: ld_gpu(g, num_devices=4),
    "ld_gpu@2x2": lambda g: ld_gpu(g, num_devices=2, num_batches=2),
    "greedy": greedy_matching,
    "suitor_seq": suitor_seq,
    "sr_omp": suitor_omp_sim,
    "sr_gpu": suitor_gpu_sim,
}


@pytest.mark.parametrize("alg", sorted(RUNS))
def test_sweep_algorithms_build_no_edge_ids(alg, medium_graph):
    g = fresh(tie_heavy(medium_graph))
    RUNS[alg](g)
    assert g._orders is not None
    assert g._canonical_eids is None


@given(g=random_graphs(tie_prone=True))
def test_ascending_rows_sort_by_weight_alone(g):
    for h in (fresh(g), fresh(tie_heavy(g))):
        assert h._rows_ascending()
        with mock.patch.object(CSRGraph, "_build_eids") as eids:
            h.sorted_neighbors()
        eids.assert_not_called()
        assert h._canonical_eids is None
        assert_layout_matches(h)


@given(g=random_graphs(tie_prone=True))
def test_unsorted_rows_take_the_eid_fallback(g):
    for h in (reversed_rows(g), reversed_rows(tie_heavy(g))):
        if h._rows_ascending():
            continue  # no row with two entries: nothing to reverse
        with mock.patch.object(CSRGraph, "_build_eids", autospec=True,
                               side_effect=CSRGraph._build_eids) as eids:
            h.sorted_row_order()
        assert eids.call_count == 1
        assert h._canonical_eids is None  # built for the sort alone
        assert_layout_matches(h)


def test_unsorted_rows_fallback_fixed(medium_graph):
    g = reversed_rows(tie_heavy(medium_graph))
    assert not g._rows_ascending()
    assert_layout_matches(g)
    ref = fresh(g)  # the same graph with ascending rows
    assert np.array_equal(ld_seq(g).mate, ld_seq(ref).mate)
    assert np.array_equal(greedy_matching(g).mate,
                          greedy_matching(ref).mate)


def test_rows_ascending_sees_one_bad_row():
    g = build_graph(5, [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 1.0),
                        (3, 4, 3.0)])
    indices = g.indices.copy()
    lo = int(g.indptr[1])
    indices[lo:lo + 2] = indices[lo:lo + 2][::-1]  # row 1: [2, 0, 3]
    weights = g.weights.copy()
    weights[lo:lo + 2] = weights[lo:lo + 2][::-1]
    h = CSRGraph(g.indptr, indices, weights)
    h.validate()
    assert not h._rows_ascending()
    assert_layout_matches(h)


# ------------------------------------------------------------------ #
# MutualIndex: one report per pair, the oracle's order
# ------------------------------------------------------------------ #


def assert_pairs_equal(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_pair_with_both_endpoints_candidates():
    # Round 1: 0<->1 and 2<->3 are mutual; both endpoints re-pointed.
    pointer = np.array([1, 0, 3, 2, 0, UNMATCHED], dtype=np.int64)
    mutual = MutualIndex(6)
    got = mutual.find_pairs(pointer, np.arange(6, dtype=np.int64))
    assert_pairs_equal(got, find_mutual_pairs(pointer, None))
    assert np.array_equal(got[0], [0, 2]) and np.array_equal(got[1], [1, 3])


def test_pair_with_one_endpoint_candidate():
    n = 10
    mutual = MutualIndex(n)
    # Round 1: nothing mutual; 1 -> 6, 2 -> 5, 3 -> 4 and 9 -> 8 stand.
    pointer = np.full(n, UNMATCHED, dtype=np.int64)
    pointer[[1, 2, 3, 9]] = [6, 5, 4, 8]
    got = mutual.find_pairs(pointer, np.arange(n, dtype=np.int64))
    assert len(got[0]) == 0
    # Round 2: 0 <-> 7 forms with both endpoints re-pointed; the upper
    # endpoints 4, 5 and 6 alone close their pairs, as does the lower
    # endpoint 8.  Reports from upper endpoints come in descending
    # order of their lower ends, yet the pairs are listed ascending.
    pointer[[0, 4, 5, 6, 7, 8]] = [7, 3, 2, 1, 0, 9]
    candidates = np.array([0, 4, 5, 6, 7, 8], dtype=np.int64)
    got = mutual.find_pairs(pointer, candidates)
    assert_pairs_equal(got, find_mutual_pairs(pointer, None))
    assert np.array_equal(got[0], [0, 1, 2, 3, 8])
    assert np.array_equal(got[1], [7, 6, 5, 4, 9])
    assert mutual.last_host_scanned == 6


@given(data=st.data())
def test_mutual_index_rounds_equal_the_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    ids = st.integers(min_value=UNMATCHED, max_value=n - 1)
    mutual = MutualIndex(n)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)
    candidates = np.arange(n, dtype=np.int64)
    for _ in range(4):
        moved = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        for v in moved:
            t = data.draw(ids)
            pointer[v] = UNMATCHED if t == v else t
        # Every re-pointed vertex is a candidate, plus a few that stand.
        extra = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        candidates = np.union1d(candidates, moved + extra).astype(np.int64)
        if data.draw(st.booleans()):
            candidates = candidates[::-1].copy()  # any order is allowed
        got = mutual.find_pairs(pointer, candidates)
        assert_pairs_equal(got, find_mutual_pairs(pointer, None))
        # Matched pairs clear their pointers, as the LD loop does.
        lo, hi = got
        pointer[lo] = pointer[hi] = UNMATCHED
        candidates = np.concatenate([lo, hi])

