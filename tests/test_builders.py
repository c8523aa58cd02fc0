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
from repro.graph.csr import CSRGraph, GraphFormatError


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


def from_coo_two_lexsorts(u, v, w, num_vertices=None):
    """The builder ``from_coo`` replaced: a two-key lexsort for the
    dedup, a second for the bucketing, and ``np.add.at`` row counts.
    The input checks are ``from_coo``'s own and are left out."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    n = int(max(u.max(initial=-1), v.max(initial=-1)) + 1) if len(u) else 0
    if num_vertices is not None:
        n = num_vertices
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    w = w[keep]
    if len(lo) == 0:
        return CSRGraph.empty(n)
    key = lo * np.int64(n) + hi
    order = np.lexsort((-w, key))
    key, lo, hi, w = key[order], lo[order], hi[order], w[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    lo, hi, w = lo[first], hi[first], w[first]
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    ww = np.concatenate([w, w])
    order = np.lexsort((dst, src))
    src, dst, ww = src[order], dst[order], ww[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRGraph(indptr, dst, ww)


@st.composite
def coo_inputs(draw):
    """COO triples with duplicates in both orientations (some of equal
    weight), self-loops, isolated vertices and empty inputs."""
    n = draw(st.integers(min_value=1, max_value=16))
    ids = st.integers(min_value=0, max_value=n - 1)
    weight = st.sampled_from([0.5, 1.0, 2.0]) if draw(st.booleans()) \
        else st.floats(min_value=1e-3, max_value=10.0)
    base = draw(st.lists(st.tuples(ids, ids, weight), max_size=40))
    # Repeat some triples, flipped or not, with their weight or a new one.
    extra = []
    for a, b, x in draw(st.lists(st.sampled_from(base), max_size=20)
                        if base else st.just([])):
        if draw(st.booleans()):
            a, b = b, a
        if draw(st.booleans()):
            x = draw(weight)
        extra.append((a, b, x))
    triples = base + extra
    u = np.array([t[0] for t in triples], dtype=np.int64)
    v = np.array([t[1] for t in triples], dtype=np.int64)
    w = np.array([t[2] for t in triples], dtype=np.float64)
    num_vertices = n + draw(st.integers(0, 3)) if draw(st.booleans()) \
        else None
    return u, v, w, num_vertices


class TestFromCooOracle:
    """``from_coo``'s one-key sorts build the same bytes as the two
    lexsorts they replaced."""

    @staticmethod
    def assert_same_bytes(u, v, w, num_vertices):
        got = from_coo(u, v, w, num_vertices=num_vertices)
        want = from_coo_two_lexsorts(u, v, w, num_vertices=num_vertices)
        for attr in ("indptr", "indices", "weights"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        got.validate()

    @given(coo_inputs())
    def test_equals_two_lexsort_builder(self, coo):
        self.assert_same_bytes(*coo)

    @pytest.mark.parametrize("triples, num_vertices", [
        ([], None),
        ([], 5),
        ([(2, 2, 1.0)], None),
        ([(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0)], 4),
        ([(3, 1, 2.0), (1, 3, 5.0), (1, 3, 5.0), (0, 2, 1.0)], None),
    ])
    def test_equals_two_lexsort_builder_fixed(self, triples, num_vertices):
        u = np.array([t[0] for t in triples], dtype=np.int64)
        v = np.array([t[1] for t in triples], dtype=np.int64)
        w = np.array([t[2] for t in triples], dtype=np.float64)
        self.assert_same_bytes(u, v, w, num_vertices)

    def test_equals_two_lexsort_builder_large(self):
        rng = np.random.default_rng(7)
        u = rng.integers(0, 3000, 40_000)
        v = rng.integers(0, 3000, 40_000)
        w = rng.integers(1, 1001, 40_000) / 1000.0
        self.assert_same_bytes(u, v, w, None)


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
