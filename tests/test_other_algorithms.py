"""Tests for the LocalMax oracle and the cuGraph analog."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from local_max_oracle import local_max
from test_layout_memo import reversed_rows
from repro.graph.csr import CSRGraph
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_A100
from repro.harness.datasets import DATASETS, quality_instance
from repro.matching.cugraph_sim import cugraph_mg_sim
from repro.matching.greedy import greedy_matching
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import ld_seq
from repro.matching.suitor import suitor_gpu_sim, suitor_omp_sim, suitor_seq
from repro.matching.validate import (
    is_valid_matching,
    verify_result,
)


#: Every matcher the uniqueness theorem in ``repro.matching.greedy``
#: covers: under the ``(w, eid)`` total order each returns the one
#: locally dominant matching.
LOCALLY_DOMINANT = {
    "ld_seq": ld_seq,
    "ld_gpu@1": lambda g: ld_gpu(g, num_devices=1),
    "ld_gpu@2": lambda g: ld_gpu(g, num_devices=2),
    "ld_gpu@4": lambda g: ld_gpu(g, num_devices=4),
    "greedy": greedy_matching,
    "suitor_seq": suitor_seq,
    "sr_omp": suitor_omp_sim,
    "sr_gpu": suitor_gpu_sim,
    "cugraph": cugraph_mg_sim,
}

_STAR = build_graph(9, [(0, i, float(i)) for i in range(1, 9)])


@pytest.mark.parametrize("name", sorted(LOCALLY_DOMINANT))
@given(g=random_graphs(tie_prone=True))
@example(g=CSRGraph.empty(4))
@example(g=build_graph(2, [(0, 1, 2.5)]))
@example(g=_STAR)
@example(g=build_graph(9, [(0, i, 1.0) for i in range(1, 9)]))
@example(g=build_graph(6, [(a, b, 1.0) for a in range(6)
                           for b in range(a + 1, 6)]))
@example(g=reversed_rows(_STAR))
def test_locally_dominant_matchers_equal_local_max(name, g):
    """Ties, one edge, a star with Δ = n − 1 (weighted and tied), a
    clique of equal weights, and rows not listed ascending; every drawn
    graph is also checked with its rows reversed."""
    fn = LOCALLY_DOMINANT[name]
    for h in (g, reversed_rows(g)):
        assert np.array_equal(fn(h).mate, local_max(h).mate), name


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
