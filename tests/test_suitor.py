"""Suitor algorithm tests: sequential, SR-OMP and SR-GPU models."""

import numpy as np
import pytest
from hypothesis import given

from conftest import build_graph, random_graphs
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import A100, CPU_EPYC_7742_2S, V100
from repro.matching.greedy import greedy_matching
from repro.matching.ld_seq import ld_seq
from repro.matching.suitor import (
    _suitor_rounds,
    suitor_gpu_sim,
    suitor_omp_sim,
    suitor_seq,
)
from repro.matching.validate import (
    is_maximal_matching,
    verify_result,
)
from test_sorted_rows import assert_sr_identical, suitor_full_scan


class TestSuitorSeq:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 1.0)])
        r = suitor_seq(g)
        assert r.mate[0] == 1

    def test_paper_fig1(self, paper_fig1_graph):
        r = suitor_seq(paper_fig1_graph)
        assert r.weight == 9.0

    def test_displacement_chain(self):
        # 0 proposes to 1; 2 (heavier) displaces 0, which re-proposes.
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 5.0), (0, 3, 0.5)])
        r = suitor_seq(g)
        assert r.mate[1] == 2
        assert r.mate[0] == 3

    def test_empty(self):
        g = build_graph(3, [])
        r = suitor_seq(g)
        assert r.num_matched_edges == 0

    @given(random_graphs())
    def test_equals_greedy(self, g):
        """Suitor under a total order produces the greedy matching."""
        assert np.array_equal(suitor_seq(g).mate, greedy_matching(g).mate)

    @given(random_graphs(tie_prone=True))
    def test_ties_terminate_and_match_greedy(self, g):
        r = suitor_seq(g)
        assert np.array_equal(r.mate, greedy_matching(g).mate)


class TestSuitorRounds:
    @given(random_graphs())
    def test_parallel_equals_sequential(self, g):
        a = suitor_seq(g)
        b = suitor_omp_sim(g)
        assert np.array_equal(a.mate, b.mate)

    @given(random_graphs(tie_prone=True))
    def test_parallel_ties(self, g):
        a = suitor_seq(g)
        b = suitor_omp_sim(g)
        assert np.array_equal(a.mate, b.mate)

    def test_maximal(self, medium_graph):
        r = suitor_omp_sim(medium_graph)
        assert is_maximal_matching(medium_graph, r.mate)
        verify_result(medium_graph, r)

    def test_equals_ld(self, medium_graph):
        assert np.array_equal(suitor_omp_sim(medium_graph).mate,
                              ld_seq(medium_graph).mate)

    def test_round_count_reported(self, medium_graph):
        r = suitor_omp_sim(medium_graph)
        assert r.iterations >= 1
        assert r.stats["rounds"] == r.iterations


class TestConflicts:
    """Bids meeting at one target in one round: the heaviest weight
    wins, then the largest canonical edge id among the bids at it."""

    def check(self, g, frontiers, pairs):
        mate = suitor_seq(g).mate
        assert np.array_equal(mate, suitor_full_scan(g))
        assert all(mate[u] == v and mate[v] == u for u, v in pairs)
        assert_sr_identical(g)
        _, _, got, _ = _suitor_rounds(g)
        assert [f.tolist() for f in got] == frontiers

    def test_equal_weight_bids_to_one_target(self):
        # Leaves 1..4 all bid 2.0 for centre 0 in round 1; leaf 4 (the
        # largest eid) wins and the others fall back to their pendants.
        # Pendant 8 loses leaf 4 to the centre's bid.
        g = build_graph(9, [(0, i, 2.0) for i in range(1, 5)]
                        + [(i, i + 4, 1.0) for i in range(1, 5)])
        self.check(g, [list(range(9)), [1, 2, 3, 8]],
                   [(0, 4), (1, 5), (2, 6), (3, 7)])

    def test_equal_weight_larger_eid_displaces(self):
        # 1's bid (1.0, eid 1) stands at 0 after round 1; 2 loses at 3
        # to 4 and bids (1.0, eid 2) for 0 in round 2, displacing 1.
        g = build_graph(5, [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 5.0),
                            (3, 4, 6.0)])
        self.check(g, [list(range(5)), [2], [1]], [(0, 2), (3, 4)])

    def test_heavier_bid_beats_equal_weight_larger_eid(self):
        # 2's bid (1.0, eid 2) stands at 0 after round 1.  In round 2
        # both 1 (3.0, eid 1) and 3 (1.0, eid 3) bid for 0: 1 wins by
        # weight though its eid is below both others'.
        g = build_graph(8, [(0, 2, 1.0), (0, 3, 1.0), (3, 4, 5.0),
                            (4, 5, 6.0), (0, 1, 3.0), (1, 6, 7.0),
                            (6, 7, 8.0)])
        self.check(g, [list(range(8)), [1, 3], [2, 3]],
                   [(0, 1), (4, 5), (6, 7)])


class TestCostModels:
    def test_omp_time_positive(self, medium_graph):
        r = suitor_omp_sim(medium_graph)
        assert r.sim_time > 0
        assert r.stats["cpu"] == CPU_EPYC_7742_2S.name

    def test_omp_scaled_cpu(self, medium_graph):
        slow = suitor_omp_sim(medium_graph,
                              cpu=CPU_EPYC_7742_2S.scaled(0.01))
        fast = suitor_omp_sim(medium_graph, cpu=CPU_EPYC_7742_2S)
        assert slow.sim_time > fast.sim_time
        assert np.array_equal(slow.mate, fast.mate)

    def test_gpu_time_positive(self, medium_graph):
        r = suitor_gpu_sim(medium_graph)
        assert r.sim_time > 0
        assert r.timeline is not None

    def test_gpu_matches_seq(self, medium_graph):
        assert np.array_equal(suitor_gpu_sim(medium_graph).mate,
                              suitor_seq(medium_graph).mate)

    def test_gpu_v100_slower(self, medium_graph):
        a = suitor_gpu_sim(medium_graph, spec=A100)
        v = suitor_gpu_sim(medium_graph, spec=V100)
        assert v.sim_time > a.sim_time

    def test_gpu_oom_32bit(self, medium_graph):
        need32 = medium_graph.memory_bytes(4, 4)
        tiny = A100.with_memory(int(need32 * 0.5))
        with pytest.raises(DeviceOOMError, match="SR-GPU"):
            suitor_gpu_sim(medium_graph, spec=tiny)

    def test_gpu_32bit_fits_where_64_wont(self, medium_graph):
        """The paper's com-Friendster case: SR-GPU's 32-bit layout runs
        where a 64-bit layout would not."""
        need64 = medium_graph.memory_bytes(8, 8) + \
            2 * medium_graph.num_vertices * 8
        spec = A100.with_memory(int(need64 * 0.8))
        r = suitor_gpu_sim(medium_graph, spec=spec)  # fits in 32-bit
        assert r.stats["representation_bytes"] < need64

    def test_gpu_serial_factor_slows(self, medium_graph):
        fast = suitor_gpu_sim(medium_graph, thread_serial_factor=1.0)
        slow = suitor_gpu_sim(medium_graph, thread_serial_factor=20.0)
        assert slow.sim_time >= fast.sim_time
