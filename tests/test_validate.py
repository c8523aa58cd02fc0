"""Unit tests for matching validation predicates."""

import numpy as np
import pytest

from conftest import build_graph
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import (
    is_maximal_matching,
    is_valid_matching,
    matching_weight,
    verify_result,
)


def mate_of(n, pairs):
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    for a, b in pairs:
        mate[a] = b
        mate[b] = a
    return mate


class TestIsValidMatching:
    def test_empty_matching(self, path_graph):
        assert is_valid_matching(path_graph, mate_of(5, []))

    def test_good_matching(self, path_graph):
        assert is_valid_matching(path_graph, mate_of(5, [(0, 1), (2, 3)]))

    def test_wrong_length(self, path_graph):
        assert not is_valid_matching(path_graph, mate_of(4, []))

    def test_not_involution(self, path_graph):
        mate = mate_of(5, [(0, 1)])
        mate[1] = 2  # 0 -> 1 but 1 -> 2
        assert not is_valid_matching(path_graph, mate)

    def test_self_match(self, path_graph):
        mate = np.full(5, UNMATCHED, dtype=np.int64)
        mate[2] = 2
        assert not is_valid_matching(path_graph, mate)

    def test_out_of_range_partner(self, path_graph):
        mate = np.full(5, UNMATCHED, dtype=np.int64)
        mate[0] = 99
        assert not is_valid_matching(path_graph, mate)

    def test_non_edge_pair(self, path_graph):
        assert not is_valid_matching(path_graph, mate_of(5, [(0, 4)]))


class TestMaximality:
    def test_maximal(self, path_graph):
        assert is_maximal_matching(path_graph, mate_of(5, [(1, 2), (3, 4)]))

    def test_not_maximal(self, path_graph):
        # edge (3,4) still addable
        assert not is_maximal_matching(path_graph, mate_of(5, [(1, 2)]))

    def test_empty_graph_maximal(self):
        g = build_graph(3, [])
        assert is_maximal_matching(g, mate_of(3, []))


class TestWeightAndCount:
    def test_weight(self, path_graph):
        mate = mate_of(5, [(0, 1), (2, 3)])
        assert matching_weight(path_graph, mate) == pytest.approx(4.0)

    def test_empty_weight(self, path_graph):
        assert matching_weight(path_graph, mate_of(5, [])) == 0.0


class TestVerifyResult:
    def test_accepts_good(self, path_graph):
        mate = mate_of(5, [(1, 2), (3, 4)])
        r = MatchResult(mate, 6.0, "test")
        verify_result(path_graph, r)

    def test_rejects_wrong_weight(self, path_graph):
        mate = mate_of(5, [(1, 2), (3, 4)])
        r = MatchResult(mate, 1.0, "test")
        with pytest.raises(AssertionError, match="weight"):
            verify_result(path_graph, r)

    def test_rejects_non_maximal(self, path_graph):
        r = MatchResult(mate_of(5, [(1, 2)]), 2.0, "test")
        with pytest.raises(AssertionError, match="maximal"):
            verify_result(path_graph, r)

    def test_non_maximal_allowed_when_disabled(self, path_graph):
        r = MatchResult(mate_of(5, [(1, 2)]), 2.0, "test")
        verify_result(path_graph, r, require_maximal=False)


class TestMatchResult:
    def test_counts(self):
        r = MatchResult(mate_of(6, [(0, 1), (2, 3)]), 2.0, "x")
        assert r.num_matched_edges == 2
        assert r.num_matched_vertices == 4

    def test_matched_pairs(self):
        r = MatchResult(mate_of(6, [(4, 1), (2, 3)]), 2.0, "x")
        pairs = {tuple(p) for p in r.matched_pairs().tolist()}
        assert pairs == {(1, 4), (2, 3)}

    def test_summary_mentions_algorithm(self):
        r = MatchResult(mate_of(2, []), 0.0, "algo-name", sim_time=1.5)
        s = r.summary()
        assert "algo-name" in s
        assert "1.5" in s
