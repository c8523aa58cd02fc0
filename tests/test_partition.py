"""Unit + property tests for vertex partitioning and batch planning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graphs
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import A100
from repro.partition.batch import auto_batch_count, plan_batches
from repro.partition.vertex import (
    edge_balanced_partition,
    partition_edge_counts,
    vertex_balanced_partition,
)


class TestEdgeBalancedPartition:
    def test_covers_all_vertices(self, medium_graph):
        for k in (1, 2, 3, 7, 8):
            off = edge_balanced_partition(medium_graph.indptr, k)
            assert off[0] == 0
            assert off[-1] == medium_graph.num_vertices
            assert len(off) == k + 1
            assert np.all(np.diff(off) >= 0)

    def test_single_part(self, medium_graph):
        off = edge_balanced_partition(medium_graph.indptr, 1)
        assert list(off) == [0, medium_graph.num_vertices]

    def test_balance_quality(self, medium_graph):
        off = edge_balanced_partition(medium_graph.indptr, 4)
        counts = partition_edge_counts(medium_graph.indptr, off)
        total = medium_graph.num_directed_edges
        # each part within mean ± max_row (contiguity limit)
        max_row = int(medium_graph.degrees.max())
        assert counts.max() <= total / 4 + max_row

    def test_more_parts_than_vertices(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        off = edge_balanced_partition(indptr, 5)
        assert off[0] == 0 and off[-1] == 2
        assert np.all(np.diff(off) >= 0)

    def test_zero_parts(self):
        with pytest.raises(ValueError):
            edge_balanced_partition(np.array([0, 1]), 0)

    def test_beats_vertex_balanced_on_skew(self):
        # one hub row with most of the edges
        from conftest import build_graph

        edges = [(0, i, 1.0) for i in range(1, 100)]
        edges += [(100 + i, 100 + i + 1, 1.0) for i in range(50)]
        g = build_graph(152, edges)
        eb = edge_balanced_partition(g.indptr, 2)
        vb = vertex_balanced_partition(g.num_vertices, 2)
        ec = partition_edge_counts(g.indptr, eb)
        vc = partition_edge_counts(g.indptr, vb)
        assert ec.max() <= vc.max()

    @given(random_graphs(max_vertices=30, max_edges=80),
           st.integers(1, 6))
    def test_invariants_property(self, g, k):
        off = edge_balanced_partition(g.indptr, k)
        assert off[0] == 0
        assert off[-1] == g.num_vertices
        assert np.all(np.diff(off) >= 0)
        assert partition_edge_counts(g.indptr, off).sum() == \
            g.num_directed_edges


class TestPartitionEdgeCounts:
    def test_trailing_empty_vertex_range(self):
        # Regression: offsets from a nominal vertex count larger than
        # the CSR's row count (indptr truncated after its last
        # non-empty row) used to index one past indptr and raise.
        indptr = np.array([0, 2, 4, 4], dtype=np.int64)  # 3 rows
        offsets = vertex_balanced_partition(6, 2)  # [0, 3, 6]
        counts = partition_edge_counts(indptr, offsets)
        assert counts.tolist() == [4, 0]
        assert counts.sum() == indptr[-1]

    def test_far_past_end_saturates(self):
        indptr = np.array([0, 5], dtype=np.int64)
        counts = partition_edge_counts(
            indptr, np.array([0, 1, 100, 100], dtype=np.int64))
        assert counts.tolist() == [5, 0, 0]

    def test_rejects_bad_offsets(self):
        indptr = np.array([0, 2, 4], dtype=np.int64)
        with pytest.raises(ValueError, match="non-decreasing"):
            partition_edge_counts(
                indptr, np.array([0, 2, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            partition_edge_counts(
                indptr, np.array([-1, 2], dtype=np.int64))

    def test_empty_offsets(self):
        assert len(partition_edge_counts(
            np.array([0, 2]), np.array([], dtype=np.int64))) == 0


class TestVertexBalancedPartition:
    def test_sizes(self):
        off = vertex_balanced_partition(10, 3)
        assert list(np.diff(off)) == [4, 3, 3]

    def test_exact_division(self):
        off = vertex_balanced_partition(9, 3)
        assert list(np.diff(off)) == [3, 3, 3]

    def test_errors(self):
        with pytest.raises(ValueError):
            vertex_balanced_partition(10, 0)
        with pytest.raises(ValueError):
            vertex_balanced_partition(-1, 2)


class TestPlanBatches:
    def test_single_batch_resident(self, medium_graph):
        plan = plan_batches(medium_graph.indptr, 1)
        assert plan.num_batches == 1
        assert plan.resident
        assert plan.max_batch_edges == medium_graph.num_directed_edges

    def test_multi_batch(self, medium_graph):
        plan = plan_batches(medium_graph.indptr, 4)
        assert plan.num_batches == 4
        assert not plan.resident
        assert plan.edge_counts.sum() == medium_graph.num_directed_edges

    def test_explicit_resident_flag(self, medium_graph):
        plan = plan_batches(medium_graph.indptr, 4, resident=True)
        assert plan.resident

    def test_zero_batches(self):
        with pytest.raises(ValueError):
            plan_batches(np.array([0, 1]), 0)

    def test_offsets_local(self, medium_graph):
        sub = medium_graph.row_slice(100, 400)
        plan = plan_batches(sub.indptr, 3)
        assert plan.offsets[0] == 0
        assert plan.offsets[-1] == 300


class TestAutoBatchCount:
    def test_fits_resident(self):
        spec = A100.with_memory(10**9)
        assert auto_batch_count(1000, 100, 1000, spec) == 1

    def test_needs_batching(self):
        # memory fits the fixed arrays + 2 small buffers only
        spec = A100.with_memory(2 * 1000 * 8 + 101 * 8 + 4000 * 16)
        nb = auto_batch_count(100_000, 100, 1000, spec)
        assert nb > 1
        # the chosen count's two buffers actually fit
        per = -(-100_000 // nb)
        assert 2 * per * 16 <= spec.memory_bytes - 2 * 1000 * 8 - 101 * 8

    def test_minimal_count(self):
        spec = A100.with_memory(2 * 1000 * 8 + 101 * 8 + 4000 * 16)
        nb = auto_batch_count(100_000, 100, 1000, spec)
        if nb > 2:
            per = -(-100_000 // (nb - 1))
            fixed = 2 * 1000 * 8 + 101 * 8
            assert 2 * per * 16 > spec.memory_bytes - fixed

    def test_oom_fixed_arrays(self):
        spec = A100.with_memory(100)  # cannot even hold pointers/mate
        with pytest.raises(DeviceOOMError):
            auto_batch_count(1000, 10, 1000, spec)

    def test_oom_even_finest(self):
        spec = A100.with_memory(2 * 10 * 8 + 11 * 8 + 8)
        with pytest.raises(DeviceOOMError):
            auto_batch_count(10**9, 10, 10, spec, max_batches=4)
