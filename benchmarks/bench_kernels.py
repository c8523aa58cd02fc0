"""Wall-clock microbenchmarks of the real (NumPy) compute kernels.

Unlike the table/figure benches — which report *modeled* device seconds —
these measure the actual Python/NumPy execution of the library's hot
paths, which is what a user of this package experiences.
"""

import numpy as np
import pytest

from repro.comm.collectives import allreduce_max
from repro.comm.topology import NVLINK_SXM4
from repro.graph.generators import rmat_graph
from repro.harness.datasets import load_dataset
from repro.matching.blossom import blossom_mwm
from repro.matching.greedy import greedy_matching
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import ld_seq
from repro.matching.suitor import suitor_omp_sim
from repro.partition.vertex import edge_balanced_partition


@pytest.fixture(scope="module")
def kron():
    return load_dataset("GAP-kron")


class TestMatchingKernels:
    def test_ld_seq_wall_time(self, benchmark, kron):
        r = benchmark(ld_seq, kron, collect_stats=False)
        assert r.num_matched_edges > 0

    def test_ld_gpu_4dev_wall_time(self, benchmark, kron):
        from repro.engine import RunContext

        plat = RunContext.for_dataset("GAP-kron").platform
        r = benchmark(ld_gpu, kron, plat, 4)
        assert r.num_matched_edges > 0

    def test_suitor_rounds_wall_time(self, benchmark, kron):
        r = benchmark(suitor_omp_sim, kron)
        assert r.num_matched_edges > 0

    def test_greedy_wall_time(self, benchmark):
        g = rmat_graph(11, 8, seed=5)
        r = benchmark(greedy_matching, g)
        assert r.num_matched_edges > 0

    def test_blossom_wall_time(self, benchmark):
        from repro.harness.datasets import quality_instance

        g = quality_instance("GAP-urand")
        r = benchmark.pedantic(blossom_mwm, args=(g,), rounds=1,
                               iterations=1)
        assert r.num_matched_edges > 0


class TestPrimitives:
    def test_edge_balanced_partition(self, benchmark, kron):
        off = benchmark(edge_balanced_partition, kron.indptr, 8)
        assert off[-1] == kron.num_vertices

    def test_allreduce_max(self, benchmark):
        bufs = [np.random.default_rng(i).integers(-1, 1000, 500_000)
                for i in range(4)]

        def run():
            return allreduce_max([b.copy() for b in bufs], NVLINK_SXM4)

        benchmark(run)

    def test_rmat_generation(self, benchmark):
        g = benchmark.pedantic(rmat_graph, args=(13, 8),
                               kwargs={"seed": 1}, rounds=2, iterations=1)
        assert g.num_edges > 0
