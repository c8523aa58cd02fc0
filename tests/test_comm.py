"""Unit tests for interconnects, collectives and transfers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.collectives import (
    allreduce_max,
    ring_allreduce_time,
)
from repro.comm.topology import (
    NVLINK_SXM3,
    NVLINK_SXM4,
    PCIE3,
    PCIE4,
    Interconnect,
)
from repro.comm.transfer import PAGEABLE_PENALTY, d2h_time, h2d_time


class TestTopology:
    def test_presets_ordered(self):
        assert PCIE3.bandwidth_gbs < PCIE4.bandwidth_gbs
        assert PCIE4.bandwidth_gbs < NVLINK_SXM3.bandwidth_gbs
        assert NVLINK_SXM3.bandwidth_gbs < NVLINK_SXM4.bandwidth_gbs

    def test_scaled(self):
        s = NVLINK_SXM4.scaled(bandwidth_factor=0.5, latency_factor=2.0)
        assert s.bandwidth_gbs == pytest.approx(300.0)
        assert s.latency_us == pytest.approx(20.0)


class TestRingCost:
    def test_single_device_free(self):
        assert ring_allreduce_time(1_000_000, 1, PCIE4) == 0.0

    def test_formula(self):
        link = Interconnect("t", 1.0, 0.0)
        # 2*(N-1) steps of (bytes/N)
        t = ring_allreduce_time(4_000_000_000, 4, link)
        assert t == pytest.approx(6 * 1.0)

    def test_monotone_in_devices_latency(self):
        ts = [ring_allreduce_time(1000, n, PCIE4) for n in (2, 4, 8)]
        assert ts[0] < ts[1] < ts[2]  # latency-bound regime


class TestAllreduce:
    def test_max_combines(self):
        a = np.array([1, -1, 5], dtype=np.int64)
        b = np.array([0, 7, 2], dtype=np.int64)
        allreduce_max([a, b], NVLINK_SXM4)
        assert list(a) == [1, 7, 5]
        assert np.array_equal(a, b)

    def test_max_sentinel_semantics(self):
        # the LD-GPU use case: owners hold values, others hold -1
        bufs = [np.full(4, -1, dtype=np.int64) for _ in range(3)]
        bufs[0][0] = 9
        bufs[1][2] = 3
        allreduce_max(bufs, NVLINK_SXM4)
        for b in bufs:
            assert list(b) == [9, -1, 3, -1]

    def test_single_buffer_noop_cost(self):
        a = np.arange(5)
        t = allreduce_max([a], NVLINK_SXM4)
        assert t == 0.0
        assert list(a) == [0, 1, 2, 3, 4]

    def test_returns_positive_time(self):
        bufs = [np.zeros(1000), np.zeros(1000)]
        assert allreduce_max(bufs, PCIE4) > 0

    def test_empty_list(self):
        with pytest.raises(ValueError):
            allreduce_max([], PCIE4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            allreduce_max([np.zeros(3), np.zeros(4)], PCIE4)

    def test_dtype_mismatch(self):
        with pytest.raises(ValueError):
            allreduce_max(
                [np.zeros(3, np.int64), np.zeros(3, np.float64)], PCIE4
            )

    @given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 2**16))
    def test_max_equals_elementwise(self, ndev, size, seed):
        rng = np.random.default_rng(seed)
        bufs = [rng.integers(-1, 100, size=size) for _ in range(ndev)]
        expect = np.max(np.stack(bufs), axis=0)
        allreduce_max(bufs, NVLINK_SXM4)
        for b in bufs:
            assert np.array_equal(b, expect)


class TestTransfers:
    def test_h2d_math(self):
        link = Interconnect("t", 1.0, 0.0)
        assert h2d_time(500_000_000, link) == pytest.approx(0.5)

    def test_pageable_slower(self):
        t_pinned = h2d_time(10**9, PCIE4, pinned=True)
        t_pageable = h2d_time(10**9, PCIE4, pinned=False)
        assert t_pageable > t_pinned
        assert t_pageable == pytest.approx(
            PCIE4.latency_s + 10**9 / (PCIE4.bandwidth_bps
                                       * PAGEABLE_PENALTY))

    def test_d2h_symmetric(self):
        assert d2h_time(1000, PCIE4) == h2d_time(1000, PCIE4)
