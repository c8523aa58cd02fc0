"""Tests for the multi-node (distributed) LD-GPU extension."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graphs
from repro.comm.collectives import (
    hierarchical_allreduce_max,
    hierarchical_allreduce_time,
)
from repro.comm.topology import INFINIBAND_HDR, NVLINK_SXM4
from repro.gpusim.cluster import DGX_A100_SUPERPOD, ClusterSpec
from repro.gpusim.spec import DGX_2, DGX_A100
from repro.matching.ld_multinode import ld_multinode
from repro.matching.ld_seq import ld_seq
from repro.matching.validate import verify_result


class TestHierarchicalAllreduce:
    def test_combines_exactly(self):
        rng = np.random.default_rng(3)
        bufs = [rng.integers(-1, 100, 64) for _ in range(8)]
        expect = np.max(np.stack(bufs), axis=0)
        t = hierarchical_allreduce_max(bufs, 4, NVLINK_SXM4,
                                       INFINIBAND_HDR)
        assert t > 0
        for b in bufs:
            assert np.array_equal(b, expect)

    def test_single_node_degenerates(self):
        bufs = [np.arange(10), np.arange(10) * 2]
        t = hierarchical_allreduce_max(bufs, 2, NVLINK_SXM4,
                                       INFINIBAND_HDR)
        assert t > 0
        assert np.array_equal(bufs[0], np.arange(10) * 2)

    def test_one_gpu_per_node(self):
        bufs = [np.zeros(4), np.ones(4)]
        t = hierarchical_allreduce_max(bufs, 1, NVLINK_SXM4,
                                       INFINIBAND_HDR)
        # pure inter-node ring, no intra stages
        assert t > 0
        assert np.all(bufs[0] == 1)

    @pytest.mark.parametrize("nodes,dpn", [(1, 4), (2, 1), (2, 4), (4, 8)])
    def test_time_helper_is_the_collectives_cost(self, nodes, dpn):
        bufs = [np.zeros(1000, dtype=np.int64) for _ in range(nodes * dpn)]
        t = hierarchical_allreduce_max(bufs, dpn, NVLINK_SXM4,
                                       INFINIBAND_HDR)
        assert hierarchical_allreduce_time(
            8000, nodes, dpn, NVLINK_SXM4, INFINIBAND_HDR) == t

    def test_ragged_nodes_rejected(self):
        bufs = [np.zeros(4)] * 3
        with pytest.raises(ValueError):
            hierarchical_allreduce_max(bufs, 2, NVLINK_SXM4,
                                       INFINIBAND_HDR)

    def test_bad_devices_per_node(self):
        with pytest.raises(ValueError):
            hierarchical_allreduce_max([np.zeros(2)], 0, NVLINK_SXM4,
                                       INFINIBAND_HDR)

    def test_inter_node_hop_costs_more_when_bandwidth_bound(self):
        """For bandwidth-bound payloads, pushing half the ring across
        the slower IB fabric costs more than staying on NVLink.  (For
        tiny latency-bound messages the tree can win — that is exactly
        why NCCL uses hierarchies.)"""
        bufs = [np.zeros(2_000_000) for _ in range(8)]  # 16 MB each
        flat = hierarchical_allreduce_max(
            [b.copy() for b in bufs], 8, NVLINK_SXM4, INFINIBAND_HDR)
        split = hierarchical_allreduce_max(
            [b.copy() for b in bufs], 4, NVLINK_SXM4, INFINIBAND_HDR)
        assert split > flat


class TestClusterSpec:
    def test_totals(self):
        assert DGX_A100_SUPERPOD.total_devices == 32

    def test_flat_platform(self):
        plat = DGX_A100_SUPERPOD.flat_platform(4)
        assert plat.max_devices == 16
        assert plat.device.name == "A100"

    def test_flat_platform_bad_dpn(self):
        with pytest.raises(ValueError):
            DGX_A100_SUPERPOD.flat_platform(9)
        with pytest.raises(ValueError):
            DGX_A100_SUPERPOD.flat_platform(0)

    def test_scaled(self):
        c = DGX_A100_SUPERPOD.scaled(0.5)
        assert c.inter_node.bandwidth_gbs == pytest.approx(12.5)
        assert c.node.device.memory_bytes == \
            DGX_A100.device.memory_bytes // 2

    def test_custom_cluster(self):
        c = ClusterSpec("V100-pair", DGX_2, 2)
        assert c.total_devices == 32
        assert c.inter_node is INFINIBAND_HDR


class TestLdMultinode:
    @pytest.mark.parametrize("nodes,dpn", [(1, 4), (2, 2), (2, 4),
                                           (4, 2), (4, 8)])
    def test_equivalent_to_seq(self, medium_graph, nodes, dpn):
        ref = ld_seq(medium_graph)
        r = ld_multinode(medium_graph, num_nodes=nodes,
                         devices_per_node=dpn, collect_stats=False)
        assert np.array_equal(r.mate, ref.mate)
        verify_result(medium_graph, r)

    @given(random_graphs(max_vertices=18, max_edges=40),
           st.integers(1, 3), st.integers(1, 3))
    def test_property_equivalence(self, g, nodes, dpn):
        ref = ld_seq(g)
        r = ld_multinode(g, num_nodes=nodes, devices_per_node=dpn,
                         collect_stats=False)
        assert np.array_equal(r.mate, ref.mate)

    def test_stats_record_shape(self, medium_graph):
        r = ld_multinode(medium_graph, num_nodes=2, devices_per_node=4,
                         collect_stats=False)
        assert r.algorithm == "ld_multinode"
        assert r.stats["num_nodes"] == 2
        assert r.stats["devices_per_node"] == 4
        assert r.stats["cluster"] == "SuperPOD-4"

    def test_too_many_nodes(self, medium_graph):
        with pytest.raises(ValueError):
            ld_multinode(medium_graph, num_nodes=9)

    def test_crossing_nodes_costs_more(self):
        """On a vertex-heavy graph (bandwidth-bound collectives), 8 GPUs
        in one node beat 8 GPUs across four nodes."""
        from repro.graph.generators import kmer_graph

        g = kmer_graph(150_000, avg_degree=2.2, seed=22)
        one = ld_multinode(g, num_nodes=1, devices_per_node=8,
                           collect_stats=False)
        four = ld_multinode(g, num_nodes=4, devices_per_node=2,
                            collect_stats=False)
        assert np.array_equal(one.mate, four.mate)
        assert four.sim_time > one.sim_time

    def test_kwargs_forwarded(self, medium_graph):
        r = ld_multinode(medium_graph, num_nodes=2, devices_per_node=2,
                         num_batches=3, collect_stats=False)
        assert r.stats["config"].num_batches == 3
