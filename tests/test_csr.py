"""Unit tests for the CSR graph container."""

import numpy as np
import pytest
from hypothesis import given

from conftest import random_graphs
from repro.graph.csr import CSRGraph, GraphFormatError


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.num_directed_edges == 0
        g.validate()

    def test_zero_vertex_graph(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0
        assert g.avg_degree == 0.0
        assert g.max_degree == 0
        g.validate()

    def test_dtype_coercion(self):
        g = CSRGraph(
            np.array([0, 1, 2], dtype=np.int32),
            np.array([1, 0], dtype=np.int32),
            np.array([1, 1], dtype=np.int32),
        )
        assert g.indptr.dtype == np.int64
        assert g.indices.dtype == np.int64
        assert g.weights.dtype == np.float64

    def test_checked_runs_validation(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.checked(
                np.array([0, 1]), np.array([0]), np.array([1.0])
            )  # self-loop

    def test_arrays_contiguous(self, medium_graph):
        assert medium_graph.indices.flags["C_CONTIGUOUS"]
        assert medium_graph.weights.flags["C_CONTIGUOUS"]


class TestProperties:
    def test_counts(self, path_graph):
        assert path_graph.num_vertices == 5
        assert path_graph.num_edges == 4
        assert path_graph.num_directed_edges == 8

    def test_degrees(self, path_graph):
        assert list(path_graph.degrees) == [1, 2, 2, 2, 1]
        assert path_graph.max_degree == 2
        assert path_graph.avg_degree == pytest.approx(8 / 5)

    def test_total_weight(self, path_graph):
        assert path_graph.total_weight == pytest.approx(10.0)

    def test_memory_bytes_64bit(self, path_graph):
        expected = 6 * 8 + 8 * 8 + 8 * 8
        assert path_graph.memory_bytes() == expected

    def test_memory_bytes_32bit_smaller(self, medium_graph):
        assert medium_graph.memory_bytes(4, 4) < medium_graph.memory_bytes()


class TestAccess:
    def test_neighbors(self, triangle):
        assert set(triangle.neighbors(0).tolist()) == {1, 2}
        assert set(triangle.neighbors(1).tolist()) == {0, 2}

    def test_neighbor_weights_aligned(self, triangle):
        nbrs = triangle.neighbors(0)
        ws = triangle.neighbor_weights(0)
        lookup = dict(zip(nbrs.tolist(), ws.tolist()))
        assert lookup == {1: 3.0, 2: 1.0}

    def test_edge_weight(self, triangle):
        assert triangle.edge_weight(0, 1) == 3.0
        assert triangle.edge_weight(1, 0) == 3.0

    def test_edge_weight_missing(self, path_graph):
        with pytest.raises(KeyError):
            path_graph.edge_weight(0, 4)

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert not path_graph.has_edge(0, 2)

    def test_iter_edges_each_once(self, triangle):
        edges = sorted(triangle.iter_edges())
        assert edges == [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0)]

    def test_edge_array_matches_iter(self, medium_graph):
        u, v, w = medium_graph.edge_array()
        assert len(u) == medium_graph.num_edges
        assert np.all(u < v)
        listed = set(zip(u.tolist(), v.tolist()))
        sample = list(medium_graph.iter_edges())[:50]
        for a, b, _ in sample:
            assert (a, b) in listed


class TestCanonicalEdgeIds:
    def test_symmetric(self, triangle):
        eids = triangle.canonical_edge_ids()
        lookup = {}
        n = triangle.num_vertices
        rows = np.repeat(np.arange(n), triangle.degrees)
        for r, c, e in zip(rows, triangle.indices, eids):
            key = (min(r, c), max(r, c))
            if key in lookup:
                assert lookup[key] == e
            lookup[key] = e

    def test_unique_per_edge(self, medium_graph):
        eids = medium_graph.canonical_edge_ids()
        assert len(np.unique(eids)) == medium_graph.num_edges


class TestValidation:
    def test_bad_indptr_start(self):
        g = CSRGraph(np.array([1, 2]), np.array([0]), np.array([1.0]))
        with pytest.raises(GraphFormatError, match="indptr"):
            g.validate()

    def test_indptr_length_mismatch(self):
        g = CSRGraph(np.array([0, 2]), np.array([1]), np.array([1.0]))
        with pytest.raises(GraphFormatError):
            g.validate()

    def test_decreasing_indptr(self):
        g = CSRGraph(np.array([0, 2, 1, 2]),
                     np.array([1, 2]), np.array([1.0, 1.0]))
        with pytest.raises(GraphFormatError):
            g.validate()

    def test_out_of_range_neighbor(self):
        g = CSRGraph(np.array([0, 1, 2]), np.array([5, 0]),
                     np.array([1.0, 1.0]))
        with pytest.raises(GraphFormatError, match="out of range"):
            g.validate()

    def test_nonpositive_weight(self):
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     np.array([0.0, 0.0]))
        with pytest.raises(GraphFormatError, match="positive"):
            g.validate()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight(self, bad):
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     np.array([bad, bad]))
        with pytest.raises(GraphFormatError, match="finite"):
            g.validate()

    def test_self_loop(self):
        g = CSRGraph(np.array([0, 1, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(GraphFormatError, match="self-loop"):
            g.validate()

    def test_asymmetric(self):
        g = CSRGraph(np.array([0, 1, 1, 2]), np.array([1, 0]),
                     np.array([1.0, 1.0]))
        # vertex 2 has edge to 0 but 0 lists only 1: construct manually
        g = CSRGraph(np.array([0, 1, 1]), np.array([1]), np.array([1.0]))
        with pytest.raises(GraphFormatError):
            g.validate()

    def test_asymmetric_weights(self):
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]),
                     np.array([1.0, 2.0]))
        with pytest.raises(GraphFormatError, match="symmetric"):
            g.validate()

    @given(random_graphs())
    def test_builder_output_always_valid(self, g):
        g.validate()


class TestTransforms:
    def test_reweighted(self, triangle):
        w2 = triangle.weights * 2.0
        g2 = triangle.reweighted(w2)
        assert g2.edge_weight(0, 1) == 6.0
        assert triangle.edge_weight(0, 1) == 3.0  # original untouched

    def test_reweighted_length_check(self, triangle):
        with pytest.raises(GraphFormatError):
            triangle.reweighted(np.array([1.0]))

    def test_row_slice_views(self, path_graph):
        sub = path_graph.row_slice(1, 4)
        assert sub.num_vertices == 3
        # global neighbour ids preserved (cut edges point outside)
        assert 0 in sub.neighbors(0).tolist()  # vertex 1's row
        assert sub.indptr[0] == 0

    def test_row_slice_full_range(self, path_graph):
        sub = path_graph.row_slice(0, 5)
        assert np.array_equal(sub.indptr, path_graph.indptr)
        assert np.array_equal(sub.indices, path_graph.indices)

    def test_row_slice_shares_memory(self, medium_graph):
        sub = medium_graph.row_slice(10, 100)
        assert np.shares_memory(sub.indices, medium_graph.indices)
        assert np.shares_memory(sub.weights, medium_graph.weights)
