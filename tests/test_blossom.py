"""Exact maximum weight matching tests: brute force, networkx
cross-checks, optimality certificates, approximation bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from nx_oracle import to_networkx
from repro.graph.csr import CSRGraph
from repro.matching.blossom import blossom_mwm, maximum_weight_matching
from repro.matching.greedy import greedy_matching
from repro.matching.ld_seq import ld_seq
from repro.matching.suitor import suitor_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import is_valid_matching, verify_result


def brute_force_mwm(graph: CSRGraph) -> float:
    """Exhaustive optimum for tiny graphs."""
    edges = list(graph.iter_edges())
    best = 0.0
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            seen: set[int] = set()
            ok = True
            for u, v, _ in combo:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                best = max(best, sum(w for _, _, w in combo))
    return best


class TestSmallExact:
    def test_empty(self):
        g = build_graph(3, [])
        r = blossom_mwm(g)
        assert r.weight == 0.0

    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 2.5)])
        r = blossom_mwm(g, verify=True)
        assert r.weight == 2.5

    def test_path_skips_greedy_trap(self):
        """P4 with weights 2, 3, 2: greedy takes the middle edge (w=3);
        the optimum takes the two outer edges (w=4)."""
        g = build_graph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)])
        opt = blossom_mwm(g, verify=True)
        grd = greedy_matching(g)
        assert opt.weight == 4.0
        assert grd.weight == 3.0

    def test_triangle(self, triangle):
        r = blossom_mwm(triangle, verify=True)
        assert r.weight == 3.0

    def test_odd_cycle_blossom(self):
        """C5 forces a blossom; optimum picks the two heaviest disjoint
        edges."""
        g = build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                            (3, 4, 1.0), (4, 0, 1.0)])
        r = blossom_mwm(g, verify=True)
        assert r.weight == 2.0

    def test_two_triangles_bridge(self):
        """The classic nested-blossom stress: two triangles joined by a
        heavy bridge."""
        g = build_graph(6, [
            (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
            (2, 3, 10.0),
        ])
        r = blossom_mwm(g, verify=True)
        assert r.weight == 12.0  # bridge + one edge in each triangle

    def test_petersen_like_blossom_expansion(self):
        """Blossom that must be expanded mid-stage (delta-4 path)."""
        # C9 with one chord and varied weights
        edges = [(i, (i + 1) % 9, 1.0 + 0.1 * i) for i in range(9)]
        edges.append((0, 4, 2.5))
        g = build_graph(9, edges)
        r = blossom_mwm(g, verify=True)
        assert r.weight == pytest.approx(brute_force_mwm(g))

    def test_paper_fig1_optimal(self, paper_fig1_graph):
        """On the Fig. 1 path the optimum ({0,1}+{2,3}+{4,5} = 10) beats
        the locally dominant matching ({0,1}+{3,4} = 9) — a concrete
        instance of the approximation gap Table II measures."""
        r = blossom_mwm(paper_fig1_graph, verify=True)
        assert r.weight == 10.0
        assert ld_seq(paper_fig1_graph).weight == 9.0


class TestPropertyExact:
    @given(random_graphs(max_vertices=8, max_edges=14))
    @settings(max_examples=40)
    def test_matches_brute_force(self, g):
        r = blossom_mwm(g, verify=True)
        assert is_valid_matching(g, r.mate)
        assert r.weight == pytest.approx(brute_force_mwm(g))

    @given(random_graphs(max_vertices=8, max_edges=14, tie_prone=True))
    @settings(max_examples=30)
    def test_matches_brute_force_ties(self, g):
        r = blossom_mwm(g, verify=True)
        assert r.weight == pytest.approx(brute_force_mwm(g))

    @given(random_graphs(max_vertices=20, max_edges=60))
    def test_matches_networkx(self, g):
        r = blossom_mwm(g)
        nxg = to_networkx(g)
        import networkx as nx

        nxm = nx.max_weight_matching(nxg)
        nxw = sum(nxg[a][b]["weight"] for a, b in nxm)
        assert r.weight == pytest.approx(nxw)

    @given(random_graphs(max_vertices=16, max_edges=40))
    def test_certificate_always_passes(self, g):
        maximum_weight_matching(g, verify=True)


class TestMaxCardinality:
    def test_prefers_more_edges(self):
        """P4 where the pure-weight optimum uses one edge but two edges
        are feasible."""
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 10.0), (2, 3, 1.0)])
        plain = blossom_mwm(g)
        card = blossom_mwm(g, maxcardinality=True, verify=True)
        assert plain.num_matched_edges == 1
        assert card.num_matched_edges == 2
        assert card.weight == 2.0

    @given(random_graphs(max_vertices=12, max_edges=30))
    def test_cardinality_dominates(self, g):
        plain = blossom_mwm(g)
        card = blossom_mwm(g, maxcardinality=True)
        assert card.num_matched_edges >= plain.num_matched_edges
        import networkx as nx

        nxm = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
        assert card.num_matched_edges == len(nxm)


class TestHalfApproximation:
    """Corollary II.1 (and the Suitor equivalent): every locally
    dominant matching carries at least half the optimal weight."""

    @given(random_graphs(max_vertices=16, max_edges=40))
    def test_ld_seq_half_approx(self, g):
        opt = blossom_mwm(g).weight
        assert ld_seq(g).weight >= 0.5 * opt - 1e-9

    @given(random_graphs(max_vertices=16, max_edges=40, tie_prone=True))
    def test_suitor_half_approx(self, g):
        opt = blossom_mwm(g).weight
        assert suitor_seq(g).weight >= 0.5 * opt - 1e-9

    def test_half_bound_is_tight_family(self):
        """P3 with weights (1, 1): LD picks one edge... build the
        classic tight example P4 w=(1, 1+eps, 1): greedy/LD gets 1+eps,
        optimum 2."""
        eps = 1e-6
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0 + eps), (2, 3, 1.0)])
        ld = ld_seq(g).weight
        opt = blossom_mwm(g).weight
        assert ld / opt == pytest.approx(0.5, abs=1e-3)


class TestMediumGraphs:
    def test_rmat_vs_networkx(self):
        from repro.graph.generators import rmat_graph

        g = rmat_graph(7, 4, seed=17)
        r = blossom_mwm(g, verify=True)
        verify_result(g, r, require_maximal=False)
        import networkx as nx

        nxg = to_networkx(g)
        nxm = nx.max_weight_matching(nxg)
        nxw = sum(nxg[a][b]["weight"] for a, b in nxm)
        assert r.weight == pytest.approx(nxw)

    def test_dense_similarity_graph(self):
        from repro.graph.generators import similarity_graph

        g = similarity_graph(120, avg_degree=20, seed=18)
        r = blossom_mwm(g, verify=True)
        assert r.weight >= greedy_matching(g).weight
