"""Unit tests for graph builders."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graphs
from repro.graph.builders import (
    compact_vertices,
    from_coo,
    from_edges,
    from_networkx,
    from_scipy_sparse,
    to_networkx,
)
from repro.graph.csr import GraphFormatError


class TestFromEdges:
    def test_basic(self):
        g = from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        g.validate()

    def test_empty(self):
        g = from_edges([], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_both_orientations_merge(self):
        g = from_edges([(0, 1, 2.0), (1, 0, 2.0)])
        assert g.num_edges == 1

    def test_duplicate_keeps_max_weight(self):
        g = from_edges([(0, 1, 2.0), (0, 1, 5.0), (1, 0, 3.0)])
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 5.0

    def test_self_loops_dropped(self):
        g = from_edges([(0, 0, 1.0), (0, 1, 1.0)])
        assert g.num_edges == 1

    def test_isolated_trailing_vertices(self):
        g = from_edges([(0, 1, 1.0)], num_vertices=10)
        assert g.num_vertices == 10
        assert g.degrees[9] == 0


class TestFromCoo:
    def test_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            from_coo(np.array([0]), np.array([1, 2]), np.array([1.0]))

    def test_negative_id(self):
        with pytest.raises(GraphFormatError):
            from_coo(np.array([-1]), np.array([1]), np.array([1.0]))

    def test_nonpositive_weight(self):
        with pytest.raises(GraphFormatError):
            from_coo(np.array([0]), np.array([1]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight(self, bad):
        with pytest.raises(GraphFormatError, match="finite"):
            from_coo(np.array([0, 1]), np.array([1, 2]),
                     np.array([1.0, bad]))

    def test_num_vertices_too_small(self):
        with pytest.raises(GraphFormatError):
            from_coo(np.array([0]), np.array([5]), np.array([1.0]),
                     num_vertices=3)

    def test_adjacency_sorted(self):
        g = from_coo(
            np.array([0, 0, 0]), np.array([3, 1, 2]),
            np.array([1.0, 2.0, 3.0]), num_vertices=4,
        )
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_all_self_loops(self):
        g = from_coo(np.array([0, 1]), np.array([0, 1]),
                     np.array([1.0, 1.0]), num_vertices=2)
        assert g.num_edges == 0
        assert g.num_vertices == 2


class TestScipyInterop:
    def test_from_scipy_symmetrises(self):
        import scipy.sparse as sp

        mat = sp.coo_matrix(
            (np.array([2.0, 3.0]), (np.array([0, 1]), np.array([1, 2]))),
            shape=(3, 3),
        )
        g = from_scipy_sparse(mat)
        g.validate()
        assert g.num_edges == 2
        assert g.edge_weight(2, 1) == 3.0

    def test_from_scipy_nonsquare(self):
        import scipy.sparse as sp

        mat = sp.coo_matrix(np.ones((2, 3)))
        with pytest.raises(GraphFormatError):
            from_scipy_sparse(mat)

    def test_from_scipy_pattern_only(self):
        import scipy.sparse as sp

        # all-negative data is treated as pattern-less; unit weights
        mat = sp.coo_matrix(
            (np.array([-1.0]), (np.array([0]), np.array([1]))),
            shape=(2, 2),
        )
        g = from_scipy_sparse(mat)
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 1.0


class TestNetworkxInterop:
    def test_round_trip(self, medium_graph):
        nxg = to_networkx(medium_graph)
        back = from_networkx(nxg)
        assert back.num_vertices == medium_graph.num_vertices
        assert back.num_edges == medium_graph.num_edges
        assert back.total_weight == pytest.approx(
            medium_graph.total_weight
        )

    def test_default_weight(self):
        import networkx as nx

        nxg = nx.path_graph(4)
        g = from_networkx(nxg)
        assert g.num_edges == 3
        assert g.edge_weight(0, 1) == 1.0

    @given(random_graphs(max_vertices=12, max_edges=30))
    def test_round_trip_property(self, g):
        back = from_networkx(to_networkx(g))
        assert back.num_edges == g.num_edges
        assert back.total_weight == pytest.approx(g.total_weight)


class TestCompactVertices:
    def test_drops_isolated(self):
        g = from_edges([(0, 5, 1.0)], num_vertices=10)
        compacted, old_ids = compact_vertices(g)
        assert compacted.num_vertices == 2
        assert compacted.num_edges == 1
        assert list(old_ids) == [0, 5]

    def test_noop_when_no_isolated(self, triangle):
        compacted, old_ids = compact_vertices(triangle)
        assert compacted.num_vertices == 3
        assert np.array_equal(old_ids, np.arange(3))
