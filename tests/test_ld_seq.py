"""Unit + property tests for LD-SEQ (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given

from conftest import build_graph, random_graphs
from segment_oracle import compute_pointers
from repro.matching.greedy import greedy_matching
from repro.matching.ld_seq import find_mutual_pairs, ld_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import (
    is_maximal_matching,
    is_valid_matching,
    verify_result,
)


def is_locally_dominant_greedy(graph, mate):
    """A matching equal to the greedy matching under the shared total
    order is locally dominant (greedy adds edges in dominance order)."""
    return np.array_equal(mate, greedy_matching(graph).mate)


class TestSmallGraphs:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 1.0)])
        r = ld_seq(g)
        assert r.mate[0] == 1 and r.mate[1] == 0
        assert r.weight == 1.0

    def test_paper_fig1(self, paper_fig1_graph):
        """Fig. 1: {0,1} (w=5) and {3,4} (w=4) are the locally dominant
        edges; the final matching is exactly those two."""
        r = ld_seq(paper_fig1_graph)
        assert r.mate[0] == 1
        assert r.mate[3] == 4
        assert r.mate[2] == UNMATCHED
        assert r.mate[5] == UNMATCHED
        assert r.weight == 9.0

    def test_fig1_one_round(self, paper_fig1_graph):
        # both dominant edges are found in the very first round
        r = ld_seq(paper_fig1_graph, max_iterations=1)
        assert r.mate[0] == 1 and r.mate[3] == 4

    def test_triangle(self, triangle):
        r = ld_seq(triangle)
        assert r.weight == 3.0  # the heaviest edge wins
        assert r.mate[2] == UNMATCHED

    def test_path_alternation(self, path_graph):
        # weights 1,2,3,4: greedy takes (3,4) then (1,2)
        r = ld_seq(path_graph)
        assert r.weight == pytest.approx(6.0)

    def test_empty_graph(self):
        g = build_graph(4, [])
        r = ld_seq(g)
        assert np.all(r.mate == UNMATCHED)
        assert r.weight == 0.0
        assert r.iterations == 1

    def test_zero_vertices(self):
        from repro.graph.csr import CSRGraph

        r = ld_seq(CSRGraph.empty(0))
        assert len(r.mate) == 0

    def test_star_graph(self):
        g = build_graph(5, [(0, i, float(i)) for i in range(1, 5)])
        r = ld_seq(g)
        assert r.mate[0] == 4  # the heaviest spoke
        assert r.num_matched_edges == 1


class TestTieBreaking:
    def test_all_equal_weights_terminates(self, tie_graph):
        """K8 with all-equal weights: naive argmax livelocks; the
        (w, eid) total order guarantees ≥1 match per round."""
        r = ld_seq(tie_graph, max_iterations=100)
        assert is_maximal_matching(tie_graph, r.mate)
        assert r.num_matched_edges == 4  # perfect matching on K8

    def test_equal_weight_path(self):
        g = build_graph(6, [(i, i + 1, 1.0) for i in range(5)])
        r = ld_seq(g, max_iterations=50)
        assert is_maximal_matching(g, r.mate)

    @given(random_graphs(tie_prone=True))
    def test_tie_prone_terminates_and_maximal(self, g):
        r = ld_seq(g, max_iterations=g.num_vertices + 2)
        assert is_valid_matching(g, r.mate)
        assert is_maximal_matching(g, r.mate)


class TestEquivalences:
    @given(random_graphs())
    def test_equals_greedy(self, g):
        assert np.array_equal(ld_seq(g).mate, greedy_matching(g).mate)

    @given(random_graphs(tie_prone=True))
    def test_frontier_equals_full_rescan(self, g):
        a = ld_seq(g)
        b = ld_seq(g, full_rescan=True)
        assert np.array_equal(a.mate, b.mate)

    def test_locally_dominant(self, medium_graph):
        r = ld_seq(medium_graph)
        assert is_locally_dominant_greedy(medium_graph, r.mate)


class TestStats:
    def test_stats_collected(self, medium_graph):
        r = ld_seq(medium_graph)
        s = r.stats
        assert len(s["edges_scanned"]) == r.iterations
        assert s["edges_scanned"][0] == medium_graph.num_directed_edges
        assert s["frontier_sizes"][0] == medium_graph.num_vertices
        # monotone decreasing scan volume after the first iteration
        assert np.all(np.diff(s["edges_scanned"]) <= 0) or \
            s["edges_scanned"][1] < s["edges_scanned"][0]

    def test_stats_disabled(self, medium_graph):
        r = ld_seq(medium_graph, collect_stats=False)
        assert r.stats == {}

    def test_new_matches_sum(self, medium_graph):
        r = ld_seq(medium_graph)
        assert r.stats["new_matches"].sum() == r.num_matched_edges

    def test_max_iterations_cap(self, medium_graph):
        r = ld_seq(medium_graph, max_iterations=1)
        assert r.iterations == 1
        assert is_valid_matching(medium_graph, r.mate)

    def test_result_verifies(self, medium_graph):
        verify_result(medium_graph, ld_seq(medium_graph))


class TestComputePointers:
    def test_respects_mask(self, path_graph):
        n = 5
        mate = np.full(n, UNMATCHED, dtype=np.int64)
        mate[3] = 4
        mate[4] = 3
        pointer = np.full(n, UNMATCHED, dtype=np.int64)
        eids = path_graph.canonical_edge_ids()
        compute_pointers(path_graph.indptr, path_graph.indices,
                         path_graph.weights, eids, mate, pointer,
                         np.array([2], dtype=np.int64))
        assert pointer[2] == 1  # 3 is matched; must point at 1

    def test_no_available_neighbor(self, path_graph):
        n = 5
        mate = np.full(n, UNMATCHED, dtype=np.int64)
        mate[1] = 2
        mate[2] = 1
        pointer = np.full(n, UNMATCHED, dtype=np.int64)
        eids = path_graph.canonical_edge_ids()
        compute_pointers(path_graph.indptr, path_graph.indices,
                         path_graph.weights, eids, mate, pointer,
                         np.array([0], dtype=np.int64))
        assert pointer[0] == UNMATCHED

    def test_returns_scan_count(self, medium_graph):
        n = medium_graph.num_vertices
        mate = np.full(n, UNMATCHED, dtype=np.int64)
        pointer = np.full(n, UNMATCHED, dtype=np.int64)
        eids = medium_graph.canonical_edge_ids()
        scanned = compute_pointers(
            medium_graph.indptr, medium_graph.indices,
            medium_graph.weights, eids, mate, pointer,
            np.arange(n, dtype=np.int64),
        )
        assert scanned == medium_graph.num_directed_edges

    def test_empty_frontier(self, medium_graph):
        n = medium_graph.num_vertices
        scanned = compute_pointers(
            medium_graph.indptr, medium_graph.indices,
            medium_graph.weights, medium_graph.canonical_edge_ids(),
            np.full(n, UNMATCHED, dtype=np.int64),
            np.full(n, UNMATCHED, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert scanned == 0


class TestFindMutualPairs:
    def test_basic(self):
        pointer = np.array([1, 0, 3, 2, -1], dtype=np.int64)
        lo, hi = find_mutual_pairs(pointer)
        assert list(lo) == [0, 2]
        assert list(hi) == [1, 3]

    def test_non_mutual(self):
        pointer = np.array([1, 2, 1], dtype=np.int64)
        lo, hi = find_mutual_pairs(pointer)
        assert list(lo) == [1]
        assert list(hi) == [2]

    def test_candidates_one_endpoint_suffices(self):
        pointer = np.array([1, 0], dtype=np.int64)
        lo, hi = find_mutual_pairs(pointer,
                                   np.array([1], dtype=np.int64))
        assert list(lo) == [0]
        assert list(hi) == [1]

    def test_dedupe_both_endpoints(self):
        pointer = np.array([1, 0], dtype=np.int64)
        lo, hi = find_mutual_pairs(pointer,
                                   np.array([0, 1], dtype=np.int64))
        assert len(lo) == 1

    def test_empty(self):
        pointer = np.full(3, UNMATCHED, dtype=np.int64)
        lo, hi = find_mutual_pairs(pointer)
        assert len(lo) == 0
