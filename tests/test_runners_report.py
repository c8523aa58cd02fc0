"""Tests for registry dispatch, ``best_ld_gpu`` and report rendering."""

import numpy as np
import pytest

from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_A100
from repro.harness.report import format_table, format_value, render_series
from repro.engine.spec import algorithm_names, get_spec
from repro.harness.runners import best_ld_gpu, fastest
from repro.harness.sweep import sweep_ld_gpu
from repro.matching.ld_seq import ld_seq


class TestRunAlgorithm:
    """Dispatch by name through the registry: ``get_spec(name).fn``."""

    def test_dispatch_all(self, medium_graph):
        from repro.matching.validate import is_valid_matching

        for name in ("ld_seq", "greedy", "suitor_seq", "sr_omp"):
            r = get_spec(name).fn(medium_graph)
            assert is_valid_matching(medium_graph, r.mate), name

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_spec("bogus")

    def test_kwargs_forwarded(self, medium_graph):
        r = get_spec("ld_gpu").fn(medium_graph, num_devices=3)
        assert r.stats["config"].num_devices == 3

    def test_registry_covers_paper_baselines(self):
        for name in ("ld_gpu", "sr_omp", "sr_gpu", "blossom", "cugraph"):
            assert name in algorithm_names()


class TestBestLdGpu:
    def test_returns_fastest(self, medium_graph):
        best, nd, nb = best_ld_gpu(
            medium_graph, DGX_A100,
            device_counts=(1, 2), batch_counts=(None, 2),
        )
        # re-run the winning config: same time
        from repro.matching.ld_gpu import ld_gpu

        again = ld_gpu(medium_graph, DGX_A100, num_devices=nd,
                       num_batches=nb, collect_stats=False)
        assert again.sim_time == pytest.approx(best.sim_time, rel=1e-9)

    def test_result_matches_seq(self, medium_graph):
        best, _, _ = best_ld_gpu(medium_graph, DGX_A100,
                                 device_counts=(1, 2),
                                 batch_counts=(None,))
        assert np.array_equal(best.mate, ld_seq(medium_graph).mate)

    def test_skips_oom_configs(self, medium_graph):
        n = medium_graph.num_vertices
        fixed = 2 * n * 8 + (n + 1) * 8
        edges = medium_graph.num_directed_edges * 16
        plat = DGX_A100.with_device_memory(fixed + edges // 3)
        best, nd, nb = best_ld_gpu(medium_graph, plat,
                                   device_counts=(1, 4),
                                   batch_counts=(1, None))
        assert best is not None  # the 1-device 1-batch config OOMs

    def test_all_oom_raises(self, medium_graph):
        plat = DGX_A100.with_device_memory(16)
        with pytest.raises(DeviceOOMError):
            best_ld_gpu(medium_graph, plat, device_counts=(1,),
                        batch_counts=(1,))

    def test_respects_platform_limit(self, medium_graph):
        best, nd, _ = best_ld_gpu(medium_graph, DGX_A100,
                                  device_counts=(4, 99),
                                  batch_counts=(None,))
        assert nd == 4


class TestSweepBest:
    """``SweepResult.best`` picks through ``fastest``, the one
    best-over-grid rule."""

    def test_agrees_with_fastest(self, medium_graph):
        s = sweep_ld_gpu(medium_graph, device_counts=(1, 2, 4),
                         batch_counts=(None, 2))
        win = fastest(s.records)
        assert s.best is s.points[
            next(i for i, r in enumerate(s.records) if r is win)]
        assert s.best.time_s == min(p.time_s for p in s.points)

    def test_ties_go_to_the_first_point(self, medium_graph):
        from dataclasses import replace

        s = sweep_ld_gpu(medium_graph, device_counts=(1, 2, 4))
        t = s.points[-1].time_s
        s.points = [replace(p, time_s=t) for p in s.points]
        s.records = [replace(r, sim_time=t) for r in s.records]
        assert s.best is s.points[0]

    def test_failed_points_never_win(self, medium_graph):
        n = medium_graph.num_vertices
        tiny = DGX_A100.with_device_memory(
            2 * n * 8 + (n + 1) * 8
            + medium_graph.num_directed_edges * 4)
        s = sweep_ld_gpu(medium_graph, platforms=(tiny,),
                         device_counts=(1,), batch_counts=(1, None))
        assert [p.ok for p in s.points] == [False, True]
        assert s.best is s.points[1]

    def test_all_oom_raises(self, medium_graph):
        s = sweep_ld_gpu(medium_graph,
                         platforms=(DGX_A100.with_device_memory(16),),
                         device_counts=(1, 2), batch_counts=(1,))
        assert not any(p.ok for p in s.points)
        with pytest.raises(DeviceOOMError):
            s.best


class TestReport:
    def test_format_value_none_dash(self):
        assert format_value(None) == "-"

    def test_format_value_float(self):
        assert format_value(1.23456, ".2f") == "1.23"

    def test_format_table_alignment(self):
        out = format_table(["name", "x"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert len({len(l) for l in lines}) == 1  # all same width
        assert "22.500" in out

    def test_format_table_title(self):
        out = format_table(["h"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_format_table_dash_for_oom(self):
        out = format_table(["graph", "t"], [["g", None]])
        assert out.splitlines()[-1].endswith("-")

    def test_render_series(self):
        s = render_series("occ", [0.1, 0.5, 1.0])
        assert "occ" in s
        assert "n=3" in s

    def test_render_series_empty(self):
        assert "(empty)" in render_series("x", [])

    def test_render_series_constant(self):
        s = render_series("flat", [2.0, 2.0, 2.0])
        assert "min 2" in s


class TestReportEdgeCases:
    """Satellite hardening: the renderers must survive the awkward
    inputs the analysis plane feeds them (NaN aggregates, ragged
    rows, series with missing measurements)."""

    def test_format_value_nan_dash(self):
        assert format_value(float("nan")) == "-"

    def test_format_table_row_longer_than_headers(self):
        out = format_table(["a"], [["x", 1.0, 2.0]])
        assert "2.000" in out  # extra cells render, no IndexError

    def test_format_table_row_shorter_than_headers(self):
        out = format_table(["a", "b", "c"], [["x"]])
        lines = out.splitlines()
        assert lines[-1].startswith("x")

    def test_format_table_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert len(out.splitlines()) == 2  # header + rule only

    def test_format_table_non_string_headers(self):
        out = format_table([1, 2], [[3, 4]])
        assert "1" in out and "4" in out

    def test_render_series_with_none_gaps(self):
        s = render_series("gappy", [1.0, None, 3.0])
        assert "n=2" in s and "min 1" in s and "max 3" in s

    def test_render_series_with_nan(self):
        s = render_series("nan", [1.0, float("nan"), 2.0])
        assert "n=2" in s

    def test_render_series_all_none(self):
        assert "(empty)" in render_series("x", [None, None])
