"""Unit tests for the GPU simulator substrate: memory, timeline, streams,
kernels, occupancy, device, specs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import SimDevice
from repro.gpusim.kernels import (
    VERTEX_HEADER_BYTES,
    matching_kernel_cost,
    pointing_kernel_cost,
    pointing_kernel_costs,
)
from repro.gpusim.memory import DeviceOOMError, MemoryPool
from repro.gpusim.occupancy import sm_occupancy, warp_work_distribution
from repro.gpusim.spec import A100, DGX_2, DGX_A100, DGX_A100_PCIE, V100
from repro.gpusim.stream import dual_buffer_schedule
from repro.gpusim.timeline import COMPONENTS, Timeline


class TestMemoryPool:
    def test_alloc_free(self):
        pool = MemoryPool(100)
        pool.alloc("a", 60)
        assert pool.used == 60
        assert pool.free == 40
        pool.free_allocation("a")
        assert pool.used == 0

    def test_oom(self):
        pool = MemoryPool(100, "gpu0")
        pool.alloc("a", 60)
        with pytest.raises(DeviceOOMError) as ei:
            pool.alloc("b", 50)
        assert ei.value.request == 50
        assert ei.value.used == 60
        assert "gpu0" in str(ei.value)

    def test_exact_fit(self):
        pool = MemoryPool(100)
        pool.alloc("a", 100)  # exactly full is fine
        assert pool.free == 0

    def test_duplicate_name(self):
        pool = MemoryPool(100)
        pool.alloc("a", 10)
        with pytest.raises(ValueError):
            pool.alloc("a", 10)

    def test_free_unknown(self):
        with pytest.raises(KeyError):
            MemoryPool(10).free_allocation("x")

    def test_negative_alloc(self):
        with pytest.raises(ValueError):
            MemoryPool(10).alloc("a", -1)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            MemoryPool(-1)

    def test_peak_tracking(self):
        pool = MemoryPool(100)
        pool.alloc("a", 70)
        pool.free_allocation("a")
        pool.alloc("b", 30)
        assert pool.peak == 70

    def test_contains_and_snapshot(self):
        pool = MemoryPool(100)
        pool.alloc("a", 10)
        assert "a" in pool
        assert pool.allocations() == {"a": 10}


class TestTimeline:
    def test_add_and_total(self):
        t = Timeline()
        t.add("pointing", 1.0)
        t.add("sync", 0.5)
        assert t.total == pytest.approx(1.5)

    def test_unknown_component(self):
        with pytest.raises(KeyError):
            Timeline().add("nonsense", 1.0)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            Timeline().add("sync", -1.0)

    def test_fractions_sum_to_one(self):
        t = Timeline()
        t.add("pointing", 3.0)
        t.add("matching", 1.0)
        f = t.fractions()
        assert sum(f.values()) == pytest.approx(1.0)
        assert f["pointing"] == pytest.approx(0.75)

    def test_fractions_empty(self):
        assert sum(Timeline().fractions().values()) == 0.0

    def test_iteration_records(self):
        t = Timeline()
        t.begin_iteration()
        t.add("pointing", 2.0)
        t.end_iteration()
        t.begin_iteration()
        t.add("pointing", 1.0)
        t.add("sync", 1.0)
        t.end_iteration()
        assert list(t.iteration_totals()) == [2.0, 2.0]
        assert list(t.component_series("pointing")) == [2.0, 1.0]

    def test_nested_iteration_errors(self):
        t = Timeline()
        t.begin_iteration()
        with pytest.raises(RuntimeError):
            t.begin_iteration()

    def test_end_without_begin(self):
        with pytest.raises(RuntimeError):
            Timeline().end_iteration()

    def test_communication_fraction(self):
        t = Timeline()
        t.add("pointing", 1.0)
        t.add("allreduce_pointers", 4.5)
        t.add("allreduce_mate", 4.5)
        assert t.communication_fraction() == pytest.approx(0.9)

    def test_merged_with(self):
        a, b = Timeline(), Timeline()
        a.add("pointing", 1.0)
        b.add("pointing", 2.0)
        b.add("sync", 1.0)
        m = a.merged_with(b)
        assert m.totals["pointing"] == 3.0
        assert m.total == 4.0

    def test_component_series_unknown(self):
        with pytest.raises(KeyError):
            Timeline().component_series("nope")


class TestDualBufferSchedule:
    def test_empty(self):
        r = dual_buffer_schedule([], [])
        assert r.makespan == 0.0

    def test_single_batch(self):
        r = dual_buffer_schedule([2.0], [3.0])
        assert r.makespan == 5.0
        assert r.exposed_transfer == 2.0

    def test_two_batches_overlap(self):
        # load1 | load2 overlaps compute1
        r = dual_buffer_schedule([1.0, 1.0], [5.0, 5.0])
        assert r.makespan == pytest.approx(11.0)
        assert r.compute_time == 10.0
        assert r.exposed_transfer == pytest.approx(1.0)

    def test_transfer_bound(self):
        r = dual_buffer_schedule([5.0, 5.0, 5.0], [1.0, 1.0, 1.0])
        # loads serialize: 5, 10, 15; computes at 6, 11, 16
        assert r.makespan == pytest.approx(16.0)

    def test_buffer_reuse_constraint(self):
        # batch 2 reuses buffer 0: its load waits for compute 0
        r = dual_buffer_schedule([1.0, 1.0, 1.0], [10.0, 1.0, 1.0])
        # load0 done 1, comp0 done 11; load1 done 2, comp1 starts 11 done 12
        # load2 starts max(load1_done=2, comp0_done=11) -> done 12,
        # comp2 starts max(12, comp1=12) -> done 13
        assert r.makespan == pytest.approx(13.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dual_buffer_schedule([1.0], [])

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=8),
           st.data())
    def test_makespan_bounds(self, loads, data):
        comps = data.draw(st.lists(st.floats(0, 10), min_size=len(loads),
                                   max_size=len(loads)))
        r = dual_buffer_schedule(loads, comps)
        assert r.makespan >= max(sum(comps), sum(loads)) - 1e-9
        assert r.makespan <= sum(comps) + sum(loads) + 1e-9


class TestKernelCosts:
    def test_pointing_empty_frontier(self):
        p = pointing_kernel_cost(A100, np.empty(0, dtype=np.int64))
        assert p.seconds == pytest.approx(A100.kernel_launch_us * 1e-6)
        assert p.edges_scanned == 0

    def test_pointing_scales_with_work(self):
        small = pointing_kernel_cost(A100, np.full(1000, 10))
        large = pointing_kernel_cost(A100, np.full(1000, 1000))
        assert large.seconds > small.seconds

    def test_pointing_straggler_penalty(self):
        uniform = pointing_kernel_cost(A100, np.full(1024, 100))
        skew = np.full(1024, 100)
        skew[0] = 100 * 1024  # one hub
        skewed = pointing_kernel_cost(A100, skew)
        assert skewed.seconds > uniform.seconds

    def test_pointing_edges_scanned(self):
        work = np.array([3, 4, 5], dtype=np.int64)
        p = pointing_kernel_cost(A100, work)
        assert p.edges_scanned == 12

    def test_matching_cost_scales(self):
        a = matching_kernel_cost(A100, 1000)
        b = matching_kernel_cost(A100, 1_000_000)
        assert b.seconds > a.seconds

    def test_matching_empty(self):
        p = matching_kernel_cost(A100, 0)
        assert p.seconds == pytest.approx(A100.kernel_launch_us * 1e-6)

    def test_v100_slower(self):
        work = np.full(100_000, 50)
        assert pointing_kernel_cost(V100, work).seconds > \
            pointing_kernel_cost(A100, work).seconds


def _scalar_launch(spec, work, vpw):
    """The per-launch SetPointers model written out for one slice: warp
    sums by ``np.add.reduceat`` and their ``np.mean``/``np.std``."""
    launch = spec.kernel_launch_us * 1e-6
    if len(work) == 0:
        return (launch.hex(), 0.0.hex(), 0, 0, 0, 0.0.hex(), 0.0.hex())
    warps = np.add.reduceat(work.astype(np.int64),
                            np.arange(0, len(work), vpw))
    bpa = spec.bytes_per_adjacency
    bw = (int(warps.sum()) * bpa + len(work) * VERTEX_HEADER_BYTES) \
        / spec.mem_bandwidth_bps
    straggler = (int(warps.max()) * bpa + vpw * VERTEX_HEADER_BYTES) \
        / (spec.warp_throughput_gbs * 1e9)
    return ((launch + max(bw, straggler)).hex(),
            sm_occupancy(spec, len(warps)).hex(), len(warps),
            int(warps.sum()), int(warps.max()),
            float(warps.mean()).hex(), float(warps.std()).hex())


def _exact(prof):
    ws = prof.warp_stats
    return (prof.seconds.hex(), prof.occupancy.hex(), ws.num_warps,
            ws.total_work, ws.max_work, ws.mean_work.hex(),
            ws.std_work.hex())


#: Warps in one slice: none, or a count in each branch of NumPy's
#: pairwise sum (under 8 terms a plain loop, 8 to 128 eight
#: accumulators, more than 128 recursive halves), which ``np.std``
#: sums a slice's squared deviations with.
_SLICE_WARPS = st.one_of(st.just(0), st.integers(1, 7),
                         st.integers(8, 128), st.integers(129, 400))


class TestBatchedPointingCost:
    """``pointing_kernel_costs`` prices every slice of a frontier in one
    pass; each slice must equal its own scalar launch bit for bit."""

    @staticmethod
    def _check(spec, work, cuts, vpw):
        got = pointing_kernel_costs(spec, work, cuts, vpw)
        assert len(got) == len(cuts) - 1
        for prof, lo, hi in zip(got, cuts[:-1], cuts[1:]):
            part = work[lo:hi]
            assert _exact(prof) == \
                _exact(pointing_kernel_cost(spec, part, vpw)) == \
                _scalar_launch(spec, part, vpw)

    @settings(max_examples=200)
    @given(st.data(), st.integers(1, 32), st.sampled_from([A100, V100]))
    def test_every_slice_matches_its_scalar_launch(self, data, vpw, spec):
        warps = data.draw(st.lists(_SLICE_WARPS, min_size=1, max_size=6))
        sizes = [data.draw(st.integers((w - 1) * vpw + 1, w * vpw))
                 if w else 0 for w in warps]
        # The cut points need not start at 0: work before them is
        # outside every slice.
        skip = data.draw(st.integers(0, 3))
        cuts = np.cumsum([skip] + sizes)
        top = data.draw(st.sampled_from([1, 5, 1000, 10**6]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        work = rng.integers(0, top, cuts[-1] + data.draw(st.integers(0, 3)))
        self._check(spec, work, cuts, vpw)

    @pytest.mark.parametrize("spec", [A100, V100])
    def test_single_slice(self, spec):
        work = np.random.default_rng(1).integers(0, 50, 1000)
        self._check(spec, work, np.array([0, 1000]), 8)

    def test_all_slices_empty(self):
        got = pointing_kernel_costs(A100, np.arange(5), [2, 2, 2], 4)
        assert [_exact(p) for p in got] == \
            [_scalar_launch(A100, np.empty(0), 4)] * 2

    def test_bad_vertices_per_warp(self):
        with pytest.raises(ValueError):
            pointing_kernel_costs(A100, np.arange(4), [0, 4], 0)


class TestOccupancy:
    def test_warp_distribution(self):
        stats = warp_work_distribution(np.array([1, 2, 3, 4, 5]), 2)
        assert stats.num_warps == 3
        assert stats.total_work == 15
        assert stats.max_work == 7
        assert stats.imbalance >= 1.0

    def test_warp_distribution_empty(self):
        stats = warp_work_distribution(np.empty(0, dtype=np.int64), 4)
        assert stats.num_warps == 0
        assert stats.imbalance == 1.0

    def test_bad_vpw(self):
        with pytest.raises(ValueError):
            warp_work_distribution(np.array([1]), 0)

    def test_occupancy_saturates(self):
        assert sm_occupancy(A100, 10 * A100.hw_warps) == 1.0

    def test_occupancy_fraction(self):
        assert sm_occupancy(A100, A100.hw_warps // 2) == pytest.approx(0.5)

    def test_occupancy_negative(self):
        with pytest.raises(ValueError):
            sm_occupancy(A100, -1)

    def test_effective_capacity(self):
        spec = A100.with_occupancy_capacity(10.0)
        assert sm_occupancy(spec, 5) == pytest.approx(0.5)
        assert sm_occupancy(spec, 100) == 1.0


class TestSpecs:
    def test_presets(self):
        assert A100.sm_count == 108
        assert V100.sm_count == 80
        assert A100.mem_bandwidth_gbs > V100.mem_bandwidth_gbs
        assert DGX_A100.max_devices == 8
        assert DGX_2.max_devices == 16

    def test_bytes_per_adjacency(self):
        assert A100.bytes_per_adjacency == 16
        assert A100.with_representation(4, 4).bytes_per_adjacency == 8

    def test_with_memory(self):
        assert A100.with_memory(123).memory_bytes == 123

    def test_scaled_device(self):
        s = A100.scaled(0.5)
        assert s.memory_bytes == A100.memory_bytes // 2
        assert s.mem_bandwidth_gbs == pytest.approx(
            A100.mem_bandwidth_gbs / 2)
        assert s.kernel_launch_us == A100.kernel_launch_us  # latency kept

    def test_scaled_platform(self):
        p = DGX_A100.scaled(0.1)
        assert p.gpu_link.bandwidth_gbs == pytest.approx(
            DGX_A100.gpu_link.bandwidth_gbs * 0.1)
        assert p.gpu_link.latency_us == DGX_A100.gpu_link.latency_us

    def test_pcie_variant(self):
        assert DGX_A100_PCIE.gpu_link.bandwidth_gbs < \
            DGX_A100.gpu_link.bandwidth_gbs

    def test_mem_efficiency_applied(self):
        assert V100.mem_bandwidth_bps == pytest.approx(
            900e9 * V100.mem_efficiency)


class TestSimDevice:
    def test_alloc_and_lookup(self):
        dev = SimDevice(0, A100.with_memory(10_000))
        dev.reserve("x", 800)
        assert "x" in dev.memory
        assert dev.memory.allocations() == {"x": 800}
        assert dev.memory.used == 800

    def test_oom_propagates(self):
        dev = SimDevice(0, A100.with_memory(10))
        with pytest.raises(DeviceOOMError):
            dev.reserve("x", 800)

    def test_counters(self):
        dev = SimDevice(1, A100)
        dev.record_kernel()
        dev.record_h2d(100)
        assert dev.kernels_launched == 1
        assert dev.bytes_h2d == 100

    def test_free_releases(self):
        dev = SimDevice(0, A100.with_memory(1000))
        dev.reserve("buf", 1000)
        dev.free("buf")
        dev.reserve("buf2", 1000)
