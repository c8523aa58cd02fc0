"""Tests for graph analytics."""

import numpy as np
import pytest
from hypothesis import given

from conftest import build_graph, random_graphs
from repro.graph.stats import (
    connected_components,
    graph_stats,
)


class TestConnectedComponents:
    def test_single_component(self, path_graph):
        labels = connected_components(path_graph)
        assert len(np.unique(labels)) == 1

    def test_two_components(self):
        g = build_graph(5, [(0, 1, 1.0), (2, 3, 1.0)])
        labels = connected_components(g)
        # vertex 4 is isolated -> its own component
        assert len(np.unique(labels)) == 3
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_labels_are_min_ids(self):
        g = build_graph(4, [(2, 3, 1.0)])
        labels = connected_components(g)
        assert labels[2] == 2 and labels[3] == 2

    def test_empty(self):
        from repro.graph.csr import CSRGraph

        assert len(connected_components(CSRGraph.empty(0))) == 0

    @given(random_graphs(max_vertices=16, max_edges=30))
    def test_matches_networkx(self, g):
        import networkx as nx

        from nx_oracle import to_networkx

        ours = connected_components(g)
        theirs = list(nx.connected_components(to_networkx(g)))
        assert len(np.unique(ours)) == len(theirs)
        for comp in theirs:
            comp = list(comp)
            assert len(np.unique(ours[comp])) == 1

    def test_kmer_chains_are_components(self):
        from repro.graph.generators import kmer_graph

        g = kmer_graph(3000, avg_degree=2.0, num_chains=6, seed=9)
        labels = connected_components(g)
        assert len(np.unique(labels)) == 6


class TestGraphStats:
    def test_summary_fields(self, medium_graph):
        s = graph_stats(medium_graph)
        assert s.num_vertices == medium_graph.num_vertices
        assert s.num_edges == medium_graph.num_edges
        assert s.max_degree == medium_graph.max_degree
        assert s.degree_skew == pytest.approx(
            medium_graph.max_degree / medium_graph.avg_degree)
        assert s.largest_component <= s.num_vertices
        assert 0 < s.min_weight <= s.max_weight <= 1.0

    def test_isolated_counted(self):
        g = build_graph(6, [(0, 1, 0.5)])
        s = graph_stats(g)
        assert s.isolated_vertices == 4

    def test_render(self, triangle):
        text = graph_stats(triangle).render()
        assert "|V| = 3" in text
        assert "components: 1" in text
