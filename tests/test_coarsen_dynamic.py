"""Tests for matching-based coarsening."""

import numpy as np
import pytest
from hypothesis import given

from conftest import build_graph, random_graphs
from repro.graph.coarsen import coarsen_hierarchy, contract_matching
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import ld_seq
from repro.matching.types import UNMATCHED


class TestContractMatching:
    def test_pair_contracts(self):
        g = build_graph(4, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 5.0)])
        m = ld_seq(g)
        coarse, coarse_of = contract_matching(g, m.mate)
        assert coarse.num_vertices == 2
        assert coarse.num_edges == 1  # the (1,2) edge survives between
        assert coarse.edge_weight(0, 1) == 1.0
        assert coarse_of[0] == coarse_of[1]
        assert coarse_of[2] == coarse_of[3]

    def test_parallel_edges_accumulate(self):
        # square: contracting (0,1) and (2,3) leaves two parallel edges
        g = build_graph(4, [(0, 1, 9.0), (2, 3, 9.0), (1, 2, 1.0),
                            (0, 3, 2.0)])
        m = ld_seq(g)
        coarse, _ = contract_matching(g, m.mate)
        assert coarse.num_edges == 1
        assert coarse.edge_weight(0, 1) == pytest.approx(3.0)

    def test_singletons_survive(self, triangle):
        m = ld_seq(triangle)  # matches (0,1); 2 is a singleton
        coarse, coarse_of = contract_matching(triangle, m.mate)
        assert coarse.num_vertices == 2
        assert len(np.unique(coarse_of)) == 2

    def test_empty_matching(self, path_graph):
        mate = np.full(5, UNMATCHED, dtype=np.int64)
        coarse, coarse_of = contract_matching(path_graph, mate)
        assert coarse.num_vertices == 5
        assert coarse.num_edges == path_graph.num_edges

    def test_mate_length_checked(self, path_graph):
        with pytest.raises(ValueError):
            contract_matching(path_graph, np.array([0]))

    @given(random_graphs(max_vertices=20, max_edges=40))
    def test_weight_conservation(self, g):
        """Coarse total weight = fine total − matched − intra losses; in
        particular it never exceeds the fine total."""
        m = ld_seq(g)
        coarse, coarse_of = contract_matching(g, m.mate)
        coarse.validate()
        assert coarse.total_weight <= g.total_weight + 1e-9
        # contraction maps all vertices
        assert np.all(coarse_of >= 0)
        assert coarse_of.max(initial=-1) == coarse.num_vertices - 1


class TestHierarchy:
    def test_levels_shrink(self, medium_graph):
        levels = coarsen_hierarchy(medium_graph, min_vertices=32)
        sizes = [lv.graph.num_vertices for lv in levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert levels[-1].matching is None

    def test_matcher_injectable(self, medium_graph):
        levels = coarsen_hierarchy(
            medium_graph,
            matcher=lambda g: ld_gpu(g, num_devices=2,
                                     collect_stats=False),
            min_vertices=64,
        )
        assert len(levels) >= 2
        assert levels[0].matching.algorithm == "ld_gpu"

    def test_min_vertices_respected(self, medium_graph):
        levels = coarsen_hierarchy(medium_graph, min_vertices=200)
        assert levels[-2].graph.num_vertices > 200 or len(levels) == 1

    def test_edgeless_input(self):
        g = build_graph(10, [])
        levels = coarsen_hierarchy(g)
        assert len(levels) == 1

    def test_star_graph_stalls_gracefully(self):
        # a star only contracts by one vertex per level; min_shrink stops
        g = build_graph(40, [(0, i, 1.0) for i in range(1, 40)])
        levels = coarsen_hierarchy(g, min_vertices=2, max_levels=50,
                                   min_shrink=0.2)
        assert len(levels) <= 4
