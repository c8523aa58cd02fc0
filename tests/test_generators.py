"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    assign_uniform_weights,
    fem_mesh_3d,
    kmer_graph,
    mycielskian_graph,
    powerlaw_cluster_graph,
    queen_mesh,
    rmat_graph,
    similarity_graph,
    uniform_random_graph,
    webcrawl_graph,
)


class TestWeights:
    def test_range_and_decimals(self):
        g = assign_uniform_weights(uniform_random_graph(
            200, 800, seed=1, weighted=False), seed=7)
        w = g.weights
        assert np.all(w > 0)
        assert np.all(w <= 1.0)
        # three decimal places exactly
        assert np.allclose(np.round(w * 1000), w * 1000)

    def test_symmetric_assignment(self):
        g = assign_uniform_weights(
            rmat_graph(8, 4, seed=2, weighted=False), seed=3)
        g.validate()  # includes weight-symmetry check

    def test_deterministic_by_seed(self):
        base = uniform_random_graph(100, 300, seed=5, weighted=False)
        a = assign_uniform_weights(base, seed=11)
        b = assign_uniform_weights(base, seed=11)
        c = assign_uniform_weights(base, seed=12)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_empty_graph_passthrough(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph.empty(3)
        assert assign_uniform_weights(g) is g


class TestRmat:
    def test_size(self):
        g = rmat_graph(9, 8, seed=1)
        assert g.num_vertices == 512
        assert g.num_edges <= 8 * 512
        g.validate()

    def test_skewed_degrees(self):
        g = rmat_graph(11, 8, seed=1)
        assert g.max_degree > 8 * g.avg_degree

    def test_bad_probs(self):
        with pytest.raises(ValueError):
            rmat_graph(5, 4, probs=(0.5, 0.5, 0.5, 0.5))

    def test_deterministic(self):
        a = rmat_graph(8, 4, seed=9)
        b = rmat_graph(8, 4, seed=9)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)


class TestUniformRandom:
    def test_flat_degrees(self):
        g = uniform_random_graph(2000, 16000, seed=2)
        assert g.max_degree < 5 * g.avg_degree
        g.validate()

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            uniform_random_graph(1, 5)


class TestMycielskian:
    @pytest.mark.parametrize("order,n,m", [(2, 2, 1), (3, 5, 5),
                                           (4, 11, 20), (5, 23, 71)])
    def test_recurrence(self, order, n, m):
        g = mycielskian_graph(order, weighted=False)
        assert g.num_vertices == n
        assert g.num_edges == m

    def test_triangle_free_small(self):
        # Mycielskians are triangle-free; check M4 by brute force.
        g = mycielskian_graph(4, weighted=False)
        n = g.num_vertices
        adj = {v: set(g.neighbors(v).tolist()) for v in range(n)}
        for u in range(n):
            for v in adj[u]:
                assert not (adj[u] & adj[v]), "triangle found"

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            mycielskian_graph(1)

    def test_validates(self):
        mycielskian_graph(9, seed=4).validate()


class TestKmer:
    def test_avg_degree_target(self):
        g = kmer_graph(20000, avg_degree=4.0, seed=3)
        assert 3.0 <= g.avg_degree <= 4.5
        g.validate()

    def test_pure_paths(self):
        g = kmer_graph(5000, avg_degree=2.0, num_chains=10, seed=4)
        assert g.max_degree <= 2

    def test_chain_bounds_exposed(self):
        g = kmer_graph(1000, seed=5)
        bounds = g.chain_bounds
        assert bounds[0, 0] == 0
        assert bounds[-1, 1] == 1000

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            kmer_graph(100, avg_degree=0.5)


class TestMeshes:
    def test_queen_degree(self):
        g = queen_mesh(20, radius=4)
        assert g.max_degree == (2 * 4 + 1) ** 2 - 1
        g.validate()

    def test_queen_regularity(self):
        g = queen_mesh(30, radius=2)
        # interior degree dominates; tiny variance
        assert g.max_degree / g.avg_degree < 1.4

    def test_fem3d_degree(self):
        g = fem_mesh_3d(7, radius=2)
        assert g.max_degree == 5**3 - 1
        g.validate()


class TestPowerlaw:
    def test_heavy_tail(self):
        g = powerlaw_cluster_graph(3000, avg_degree=20, exponent=2.2,
                                   seed=6)
        assert g.max_degree > 10 * g.avg_degree
        g.validate()

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(100, exponent=2.0)

    def test_locality_increases_clustering(self):
        import networkx as nx

        from nx_oracle import to_networkx

        local = powerlaw_cluster_graph(800, 12, locality=0.9,
                                       community_size=16, seed=7)
        nonlocal_ = powerlaw_cluster_graph(800, 12, locality=0.0,
                                           community_size=16, seed=7)
        c1 = nx.average_clustering(to_networkx(local))
        c2 = nx.average_clustering(to_networkx(nonlocal_))
        assert c1 > c2


class TestWebcrawl:
    def test_hub_tail(self):
        g = webcrawl_graph(4000, out_degree=10, seed=8)
        assert g.max_degree > 20 * g.avg_degree
        g.validate()

    def test_too_small(self):
        with pytest.raises(ValueError):
            webcrawl_graph(2)


class TestSimilarity:
    def test_natural_weights(self):
        g = similarity_graph(800, avg_degree=30, seed=9)
        assert np.any(g.weights != 1.0)
        assert np.all(g.weights > 0)
        assert np.all(g.weights <= 1.0)
        g.validate()

    def test_degree_near_target(self):
        g = similarity_graph(1500, avg_degree=40, seed=10)
        assert 20 <= g.avg_degree <= 60

    def test_too_small(self):
        with pytest.raises(ValueError):
            similarity_graph(1)
