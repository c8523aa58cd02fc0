"""Tests for matching-based coarsening and dynamic matching."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.graph.coarsen import coarsen_hierarchy, contract_matching
from repro.matching.dynamic import DynamicMatcher
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import ld_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import (
    is_maximal_matching,
    is_valid_matching,
)


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


class TestDynamicMatcher:
    def test_from_graph(self, medium_graph):
        dm = DynamicMatcher(medium_graph)
        snap = dm.to_graph()
        assert is_valid_matching(snap, dm.mate)
        assert is_maximal_matching(snap, dm.mate)
        assert dm.weight == pytest.approx(ld_seq(medium_graph).weight)

    def test_insert_into_empty(self):
        dm = DynamicMatcher(num_vertices=4)
        dm.insert(0, 1, 1.0)
        assert dm.mate[0] == 1
        dm.insert(2, 3, 2.0)
        assert dm.mate[2] == 3
        assert dm.weight == pytest.approx(3.0)

    def test_insert_heavy_edge_displaces(self):
        dm = DynamicMatcher(num_vertices=4)
        dm.insert(0, 1, 1.0)
        dm.insert(1, 2, 5.0)  # beats (0,1)
        assert dm.mate[1] == 2
        assert dm.mate[0] == UNMATCHED
        dm.insert(0, 3, 1.0)
        assert dm.mate[0] == 3

    def test_displaced_partner_rematches(self):
        dm = DynamicMatcher(num_vertices=4)
        dm.insert(0, 1, 1.0)
        dm.insert(0, 3, 0.5)
        dm.insert(1, 2, 5.0)  # displaces 0, which re-matches to 3
        assert dm.mate[0] == 3

    def test_insert_grows_vertex_set(self):
        dm = DynamicMatcher(num_vertices=2)
        dm.insert(0, 9, 1.0)
        assert dm.num_vertices == 10
        assert dm.mate[9] == 0

    def test_reweight_matched_edge(self):
        dm = DynamicMatcher(num_vertices=2)
        dm.insert(0, 1, 1.0)
        dm.insert(0, 1, 3.0)
        assert dm.weight == pytest.approx(3.0)

    def test_delete_matched_edge(self):
        dm = DynamicMatcher(num_vertices=3)
        dm.insert(0, 1, 2.0)
        dm.insert(1, 2, 1.0)
        dm.delete(0, 1)
        assert dm.mate[1] == 2  # 1 re-matched downward
        assert dm.num_edges == 1

    def test_delete_missing(self):
        dm = DynamicMatcher(num_vertices=2)
        with pytest.raises(KeyError):
            dm.delete(0, 1)

    def test_bad_inserts(self):
        dm = DynamicMatcher(num_vertices=2)
        with pytest.raises(ValueError):
            dm.insert(0, 0, 1.0)
        with pytest.raises(ValueError):
            dm.insert(0, 1, 0.0)

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, w):
        dm = DynamicMatcher(num_vertices=3)
        dm.insert(0, 1, 1.0)
        for u, v in ((1, 2), (0, 1), (0, 9)):  # new, re-weight, growing
            with pytest.raises(ValueError):
                dm.insert(u, v, w)
        assert dm.num_vertices == 3 and dm.updates == 1
        assert dm.weight == 1.0
        assert dm.edges()[2].tolist() == [1.0]

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (0, 5), (5, 0),
                                      (0, 1), (2, 2)])
    def test_bad_delete_leaves_matcher_unchanged(self, pair):
        dm = DynamicMatcher(num_vertices=3)
        dm.insert(2, 0, 1.0)
        with pytest.raises(KeyError):
            dm.delete(*pair)
        assert dm.has_edge(2, 0) and dm.num_edges == 1
        eu, ev, ew = dm.edges()
        assert (eu.tolist(), ev.tolist(), ew.tolist()) == ([0], [2], [1.0])
        assert dm.to_graph().num_edges == 1
        assert dm.mate.tolist() == [2, UNMATCHED, 0]
        assert dm.updates == 1

    def test_greedy_repair_tie_rule(self):
        """Repairs take the heaviest free neighbour; weight ties go to
        the larger canonical edge id (within a row, the larger id)."""
        dm = DynamicMatcher(num_vertices=7)
        dm.insert(5, 6, 9.0)
        dm.insert(2, 5, 3.0)  # 5 is taken by a heavier edge
        dm.insert(2, 0, 2.0)
        for u in (3, 4, 1):  # tied, inserted out of id order
            dm.insert(2, u, 1.0)
        assert dm.mate[2] == 0
        dm.delete(2, 0)  # 2 re-matches among free {1, 3, 4}
        assert dm.mate[2] == 4 and dm.mate[4] == 2
        dm.delete(2, 4)  # ties across the row's pivot: eid(2,3) > eid(1,2)
        assert dm.mate[2] == 3
        dm.insert(2, 1, 1.5)  # a heavier edge beats a larger id
        dm.delete(2, 3)
        assert dm.mate[2] == 1

    def test_weight_exact(self, tie_graph):
        from repro.graph.generators.uniform import uniform_random_graph
        from repro.harness.datasets import quality_instance
        from repro.matching.validate import matching_weight

        for g in (uniform_random_graph(400, 1600, seed=17),
                  quality_instance("GAP-kron"),
                  quality_instance("mouse_gene"), tie_graph):
            dm = DynamicMatcher(g)
            assert dm.weight == matching_weight(dm.to_graph(), dm.mate)
            u, v, w = g.edge_array()
            for k in range(0, len(u), 5):
                dm.delete(int(u[k]), int(v[k]))
                dm.insert(int(v[k]), int(u[k]), float(w[k]) * 1.1)
            assert dm.weight == matching_weight(dm.to_graph(), dm.mate)

    def test_rebuild_resets(self):
        dm = DynamicMatcher(num_vertices=6)
        for k in range(5):
            dm.insert(k, k + 1, 1.0 + 0.1 * k)
        dm.rebuild()
        assert dm.updates == 0
        snap = dm.to_graph()
        assert is_maximal_matching(snap, dm.mate)

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.floats(0.01, 1.0)),
                    min_size=1, max_size=40))
    def test_always_valid_and_maximal(self, ops):
        """After any insert sequence the matching is valid and maximal."""
        dm = DynamicMatcher(num_vertices=12)
        for a, b, w in ops:
            if a == b:
                continue
            dm.insert(a, b, w)
        snap = dm.to_graph()
        assert is_valid_matching(snap, dm.mate)
        assert is_maximal_matching(snap, dm.mate)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                              st.floats(0.01, 1.0)),
                    min_size=4, max_size=30), st.data())
    def test_valid_under_mixed_ops(self, inserts, data):
        dm = DynamicMatcher(num_vertices=10)
        edges = []
        for a, b, w in inserts:
            if a == b:
                continue
            dm.insert(a, b, w)
            edges.append((a, b))
        if edges:
            k = data.draw(st.integers(0, len(edges) - 1))
            a, b = edges[k]
            if dm.has_edge(a, b):
                dm.delete(a, b)
        snap = dm.to_graph()
        assert is_valid_matching(snap, dm.mate)
        assert is_maximal_matching(snap, dm.mate)

    def test_drift_bounded_on_random_stream(self):
        rng = np.random.default_rng(5)
        dm = DynamicMatcher(num_vertices=60)
        for _ in range(300):
            a, b = rng.integers(0, 60, 2)
            if a != b:
                dm.insert(int(a), int(b),
                          float(np.round(rng.random() + 0.001, 3)))
        d = dm.drift()
        assert 0.5 <= d <= 1.0 + 1e-9  # half bound holds empirically


class TestDynamicSnapshot:
    """``to_graph()`` and ``edges()`` must always agree with an edge
    model kept by the test, ``{(lo, hi): w}``."""

    @staticmethod
    def _model(g):
        u, v, w = g.edge_array()
        return {(int(a), int(b)): float(c) for a, b, c in zip(u, v, w)}

    @classmethod
    def _assert_matches(cls, dm, model):
        snap = dm.to_graph()
        snap.validate()
        assert snap.num_vertices == dm.num_vertices
        assert cls._model(snap) == model
        keys = sorted(model)
        eu, ev, ew = dm.edges()
        assert eu.tolist() == [a for a, _ in keys]
        assert ev.tolist() == [b for _, b in keys]
        assert ew.tolist() == [model[k] for k in keys]
        assert dm.num_edges == len(model)
        assert all(dm.has_edge(b, a) for a, b in keys)

    def test_pure_deletions_use_edge_subgraph_path(self, medium_graph):
        dm = DynamicMatcher(medium_graph)
        model = self._model(medium_graph)
        u, v, _ = medium_graph.edge_array()
        for k in range(0, len(u), 7):
            dm.delete(int(u[k]), int(v[k]))
            del model[(int(u[k]), int(v[k]))]
        assert dm.num_vertices == medium_graph.num_vertices
        self._assert_matches(dm, model)

    def test_mixed_mutations_snapshot(self, medium_graph):
        dm = DynamicMatcher(medium_graph)
        model = self._model(medium_graph)
        u, v, w = (a.tolist() for a in medium_graph.edge_array())
        dm.delete(u[0], v[0])
        del model[(u[0], v[0])]
        dm.insert(u[1], v[1], w[1] + 1.0)  # re-weight
        model[(u[1], v[1])] = w[1] + 1.0
        dm.insert(u[0], v[0], w[0])  # re-insert
        model[(u[0], v[0])] = w[0]
        big = medium_graph.num_vertices + 3  # grow the vertex set
        dm.insert(0, big, 0.5)
        model[(0, big)] = 0.5
        assert dm.num_vertices == big + 1
        self._assert_matches(dm, model)

    def test_noop_reinsert_stays_on_fast_path(self, medium_graph):
        dm = DynamicMatcher(medium_graph)
        u, v, w = medium_graph.edge_array()
        dm.insert(int(u[2]), int(v[2]), float(w[2]))  # identical edge
        self._assert_matches(dm, self._model(medium_graph))
        snap = dm.to_graph()
        assert np.array_equal(snap.indptr, medium_graph.indptr)
        assert np.array_equal(snap.indices, medium_graph.indices)
        assert np.array_equal(snap.weights, medium_graph.weights)

    def test_rebuild_rebases(self, medium_graph):
        dm = DynamicMatcher(medium_graph)
        model = self._model(medium_graph)
        u, v, _ = medium_graph.edge_array()
        dm.delete(int(u[0]), int(v[0]))
        del model[(int(u[0]), int(v[0]))]
        dm.insert(0, medium_graph.num_vertices + 1, 2.0)
        model[(0, medium_graph.num_vertices + 1)] = 2.0
        dm.rebuild()
        assert dm.updates == 0
        self._assert_matches(dm, model)
        fresh = ld_seq(dm.to_graph())
        assert np.array_equal(dm.mate, fresh.mate)
        assert dm.weight == fresh.weight

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                              st.floats(0.01, 1.0)),
                    min_size=1, max_size=30), st.data())
    def test_snapshot_equivalence_property(self, inserts, data):
        dm = DynamicMatcher(build_graph(10, [(0, 1, 1.0), (2, 3, 0.5),
                                             (4, 5, 0.25)]))
        model = {(0, 1): 1.0, (2, 3): 0.5, (4, 5): 0.25}
        for a, b, w in inserts:
            if a == b:
                continue
            dm.insert(a, b, w)
            model[(min(a, b), max(a, b))] = w
            if model and data.draw(st.booleans()):
                pair = data.draw(st.sampled_from(sorted(model)))
                dm.delete(*pair)
                del model[pair]
        self._assert_matches(dm, model)
