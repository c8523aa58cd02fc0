"""Tests for LocalMax, auction matching and the cuGraph analog."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_A100
from repro.harness.datasets import DATASETS, quality_instance
from repro.matching.auction import auction_matching
from repro.matching.cugraph_sim import cugraph_mg_sim
from repro.matching.greedy import greedy_matching
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import ld_seq
from repro.matching.local_max import local_max
from repro.matching.validate import (
    is_maximal_matching,
    is_valid_matching,
    verify_result,
)


class TestLocalMax:
    @given(random_graphs())
    def test_equals_greedy(self, g):
        assert np.array_equal(local_max(g).mate, greedy_matching(g).mate)

    @given(random_graphs(tie_prone=True))
    def test_ties(self, g):
        assert np.array_equal(local_max(g).mate, greedy_matching(g).mate)

    def test_fewer_rounds_than_pointer(self, medium_graph):
        """Edge-centric LocalMax commits every dominant edge per round,
        so it needs no more rounds than the vertex-centric algorithm."""
        lm = local_max(medium_graph)
        ld = ld_seq(medium_graph)
        assert lm.iterations <= ld.iterations

    def test_matches_per_round_sum(self, medium_graph):
        r = local_max(medium_graph)
        assert r.stats["matches_per_round"].sum() == r.num_matched_edges

    def test_empty(self):
        r = local_max(build_graph(3, []))
        assert r.num_matched_edges == 0

    def test_max_iterations(self, medium_graph):
        r = local_max(medium_graph, max_iterations=1)
        assert r.iterations == 1
        assert is_valid_matching(medium_graph, r.mate)


class TestAuction:
    @given(random_graphs(), st.integers(0, 3))
    def test_valid_and_maximal(self, g, seed):
        r = auction_matching(g, seed=seed)
        assert is_valid_matching(g, r.mate)
        assert is_maximal_matching(g, r.mate)

    def test_quality_subpar_to_ld(self):
        """§II-C: auction quality 'is shown to be subpar to subsequent
        work' — aggregate over seeds on a fixed graph."""
        from repro.graph.generators import rmat_graph

        g = rmat_graph(9, 6, seed=21)
        ld_w = ld_seq(g).weight
        auction_w = np.mean([
            auction_matching(g, seed=s).weight for s in range(5)
        ])
        assert auction_w < ld_w

    def test_deterministic_per_seed(self, medium_graph):
        a = auction_matching(medium_graph, seed=3)
        b = auction_matching(medium_graph, seed=3)
        assert np.array_equal(a.mate, b.mate)

    def test_verifies(self, medium_graph):
        verify_result(medium_graph, auction_matching(medium_graph))

    def test_empty(self):
        r = auction_matching(build_graph(4, []))
        assert r.num_matched_edges == 0


class TestCuGraphSim:
    def test_same_matching_as_ld(self, medium_graph):
        cu = cugraph_mg_sim(medium_graph, num_devices=4)
        ld = ld_seq(medium_graph)
        assert np.array_equal(cu.mate, ld.mate)
        verify_result(medium_graph, cu)

    def test_slower_than_ld_gpu(self, medium_graph):
        """Table V: host-staged MPI + full-graph rescans cost an order of
        magnitude over NCCL-over-streams."""
        cu = cugraph_mg_sim(medium_graph, num_devices=4)
        ld = ld_gpu(medium_graph, num_devices=4, num_batches=1,
                    collect_stats=False)
        assert cu.sim_time > 3 * ld.sim_time

    def test_full_graph_memory_model(self, medium_graph):
        need = medium_graph.memory_bytes()
        tiny = DGX_A100.with_device_memory(need // 2)
        with pytest.raises(DeviceOOMError, match="cuGraph"):
            cugraph_mg_sim(medium_graph, tiny, num_devices=4)

    def test_single_device(self, medium_graph):
        r = cugraph_mg_sim(medium_graph, num_devices=1)
        assert r.timeline.totals["allreduce_pointers"] == 0.0
        assert np.array_equal(r.mate, ld_seq(medium_graph).mate)

    def test_bad_devices(self, medium_graph):
        with pytest.raises(ValueError):
            cugraph_mg_sim(medium_graph, num_devices=0)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_quality_instances_match_ld_seq(self, name):
        g = quality_instance(name)
        ref = ld_seq(g).mate
        for nd in (1, 2, 4, 8):
            assert np.array_equal(cugraph_mg_sim(g, num_devices=nd).mate,
                                  ref), nd

    @given(random_graphs(max_vertices=16, max_edges=40),
           st.integers(1, 4))
    def test_property_equivalence(self, g, nd):
        cu = cugraph_mg_sim(g, num_devices=nd)
        assert np.array_equal(cu.mate, ld_seq(g).mate)
