"""Tests for execution traces, configuration sweeps and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.gpusim.spec import DGX_A100, DGX_A100_PCIE
from repro.gpusim.timeline import Timeline
from repro.gpusim.trace import Trace, TraceEvent
from repro.harness.sweep import SweepPoint, sweep_ld_gpu
from repro.matching.ld_gpu import ld_gpu


class TestTrace:
    def test_from_timeline(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        trace = Trace.from_timeline(r.timeline)
        assert len(trace) > 0
        assert trace.total_duration == pytest.approx(r.sim_time)

    def test_events_ordered_and_disjoint_per_track(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        trace = Trace.from_timeline(r.timeline)
        ends: dict = {}
        for e in trace.events:
            track = e.track if e.track is not None else e.lane
            assert e.start_s >= ends.get(track, 0.0) - 1e-12
            ends[track] = e.start_s + e.duration_s

    def test_lane_totals_match_components(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=4)
        trace = Trace.from_timeline(r.timeline)
        lanes = trace.lane_totals()
        t = r.timeline.totals
        assert lanes["compute"] == pytest.approx(
            t["pointing"] + t["matching"])
        assert lanes["communication"] == pytest.approx(
            t["allreduce_pointers"] + t["allreduce_mate"]
            + t["batch_transfer"] + t["sync"])

    def test_chrome_trace_schema(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, max_iterations=2)
        doc = Trace.from_timeline(r.timeline).to_chrome_trace()
        assert "traceEvents" in doc
        ev = doc["traceEvents"][0]
        assert ev["ph"] == "X"
        assert ev["ts"] >= 0 and ev["dur"] > 0

    def test_save_round_trip(self, tmp_path, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, max_iterations=1)
        trace = Trace.from_timeline(r.timeline)
        path = tmp_path / "t.json"
        trace.save(path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == len(trace)

    def test_empty_timeline(self):
        trace = Trace.from_timeline(Timeline())
        assert len(trace) == 0
        assert trace.total_duration == 0.0


class TestTraceBatchTransferOverlap:
    """Regression: batch transfers render on their own tid, overlapping
    the pointing kernel (the §IV-C dual-buffer pipeline), instead of
    being serialised onto the compute clock."""

    @staticmethod
    def _streaming_timeline():
        t = Timeline()
        for point, bt in ((2.0, 1.5), (1.0, 0.5)):
            t.begin_iteration()
            t.add("pointing", point)
            t.add("batch_transfer", bt)
            t.add("allreduce_pointers", 0.25)
            t.add("matching", 0.5)
            t.add("allreduce_mate", 0.25)
            t.add("sync", 0.1)
            t.end_iteration()
        return t

    def test_own_tid_with_overlapping_timestamps(self):
        trace = Trace.from_timeline(self._streaming_timeline())
        bt = [e for e in trace.events if e.name == "batch_transfer"]
        pt = [e for e in trace.events if e.name == "pointing"]
        assert len(bt) == 2 and len(pt) == 2
        for b, p in zip(bt, pt):
            assert b.track == "batch_transfer"
            assert b.to_chrome()["tid"] == "batch_transfer"
            # Same start as the pointing kernel: the copy engine and the
            # compute queue run concurrently.
            assert b.start_s == pytest.approx(p.start_s)
            assert b.start_s < p.start_s + p.duration_s

    def test_lane_totals_semantics_unchanged(self):
        t = self._streaming_timeline()
        lanes = Trace.from_timeline(t).lane_totals()
        assert lanes["compute"] == pytest.approx(
            t.totals["pointing"] + t.totals["matching"])
        assert lanes["communication"] == pytest.approx(
            t.totals["allreduce_pointers"] + t.totals["allreduce_mate"]
            + t.totals["batch_transfer"] + t.totals["sync"])

    def test_total_duration_still_matches_timeline(self):
        t = self._streaming_timeline()
        assert Trace.from_timeline(t).total_duration == \
            pytest.approx(t.total)

    def test_serial_components_start_after_phase_makespan(self):
        trace = Trace.from_timeline(self._streaming_timeline())
        first_ar = next(e for e in trace.events
                        if e.name == "allreduce_pointers")
        # pointing (2.0) + exposed transfer (1.5) precede the allreduce.
        assert first_ar.start_s == pytest.approx(3.5)

    def test_streaming_run_end_to_end(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, num_batches=3,
                   force_streaming=True, max_iterations=3)
        assert r.timeline.totals["batch_transfer"] > 0
        trace = Trace.from_timeline(r.timeline)
        tids = {e.to_chrome()["tid"] for e in trace.events}
        assert "batch_transfer" in tids
        assert trace.total_duration == pytest.approx(r.sim_time)


class TestSweep:
    def test_grid_coverage(self, medium_graph):
        result = sweep_ld_gpu(
            medium_graph,
            platforms=(DGX_A100,),
            device_counts=(1, 2),
            batch_counts=(None, 3),
        )
        assert len(result.points) == 4
        assert all(p.ok for p in result.points)

    def test_best_is_minimum(self, medium_graph):
        result = sweep_ld_gpu(medium_graph, device_counts=(1, 2, 4))
        times = [p.time_s for p in result.points if p.ok]
        assert result.best.time_s == min(times)

    def test_oom_points_recorded(self, medium_graph):
        n = medium_graph.num_vertices
        tiny = DGX_A100.with_device_memory(
            2 * n * 8 + (n + 1) * 8 + medium_graph.num_directed_edges * 4
        )
        result = sweep_ld_gpu(medium_graph, platforms=(tiny,),
                              device_counts=(1,), batch_counts=(1, None))
        oom = [p for p in result.points if not p.ok]
        assert len(oom) == 1  # the forced single batch cannot fit

    def test_multiple_platforms(self, medium_graph):
        result = sweep_ld_gpu(
            medium_graph, platforms=(DGX_A100, DGX_A100_PCIE),
            device_counts=(2,),
        )
        names = {p.platform for p in result.points}
        assert names == {"DGX-A100", "DGX-A100-PCIe"}

    def test_render(self, medium_graph):
        result = sweep_ld_gpu(medium_graph, device_counts=(1,))
        text = result.render()
        assert "LD-GPU sweep" in text
        assert "#GPUs" in text

    def test_device_limit_respected(self, medium_graph):
        result = sweep_ld_gpu(medium_graph, device_counts=(4, 99))
        assert all(p.num_devices <= 8 for p in result.points)

    def test_metrics_aggregated_across_cells(self, medium_graph):
        result = sweep_ld_gpu(medium_graph, device_counts=(1, 2),
                              collect_metrics=True)
        assert len(result.cell_snapshots) == len(result.points)
        merged = result.metrics
        # Cross-cell histogram merge: span count is the sum of cells'.
        per_cell = [
            sum(s["count"] for s in snap.samples("repro_span_seconds"))
            for snap in result.cell_snapshots
        ]
        merged_count = sum(
            s["count"] for s in merged.samples("repro_span_seconds"))
        assert merged_count == sum(per_cell) > 0
        # And the merged component seconds equal the summed sim times.
        total = sum(p.time_s for p in result.points if p.ok)
        assert merged.total("repro_component_seconds_total") == \
            pytest.approx(total)

    def test_metrics_off_by_default(self, medium_graph):
        result = sweep_ld_gpu(medium_graph, device_counts=(1,))
        assert result.metrics is None
        assert result.cell_snapshots == []


class TestCli:
    def test_parser_commands(self):
        p = build_parser()
        args = p.parse_args(["list", "datasets"])
        assert args.command == "list"
        args = p.parse_args(["run", "-a", "ld_seq", "-d", "mouse_gene"])
        assert args.algorithm == "ld_seq"
        args = p.parse_args(["sweep", "-d", "kmer_V2a", "-n", "1", "2"])
        assert args.devices == [1, 2]
        args = p.parse_args(["experiment", "table3", "--quick"])
        assert args.quick

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "-a", "ld_seq",
                                       "-d", "nope"])

    def test_list_algorithms(self, capsys):
        assert main(["list", "algorithms"]) == 0
        out = capsys.readouterr().out
        assert "ld_gpu" in out
        assert "blossom" in out

    def test_list_datasets(self, capsys):
        assert main(["list", "datasets"]) == 0
        out = capsys.readouterr().out
        assert "GAP-kron" in out
        assert "LARGE" in out

    def test_list_experiments(self, capsys):
        assert main(["list", "experiments"]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_run_ld_gpu(self, capsys):
        assert main(["run", "-a", "ld_gpu", "-d", "mouse_gene",
                     "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "ld_gpu:" in out
        assert "% time" in out

    def test_run_plain_algorithm(self, capsys):
        assert main(["run", "-a", "greedy", "-d", "mouse_gene"]) == 0
        assert "greedy:" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "-d", "mouse_gene", "-n", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "table3", "--quick"]) == 0
        assert "A100 speedup" in capsys.readouterr().out

    def test_run_metrics_out_prom(self, tmp_path, capsys):
        from repro.telemetry import validate_prometheus_text

        out = tmp_path / "run.prom"
        assert main(["run", "-a", "ld_gpu", "-d", "mouse_gene",
                     "-n", "2", "--metrics-out", str(out)]) == 0
        assert "metrics (prometheus) written" in capsys.readouterr().out
        text = out.read_text()
        assert validate_prometheus_text(text) > 0
        assert "repro_component_seconds_total" in text

    def test_run_metrics_out_json(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["run", "-a", "ld_gpu", "-d", "mouse_gene",
                     "-n", "4", "--json", "--metrics-out",
                     str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["reconciliation"]["max_abs_diff"] <= 1e-9
        assert doc["provenance"]["numpy"]
        rec = doc["reconciliation"]
        assert rec["communication_fraction_metric"] == pytest.approx(
            rec["communication_fraction_timeline"])

    def test_stats_subcommand(self, tmp_path, capsys):
        record = tmp_path / "record.json"
        assert main(["run", "-a", "ld_gpu", "-d", "mouse_gene",
                     "-n", "2", "--json"]) == 0
        record.write_text(capsys.readouterr().out)
        assert main(["stats", str(record)]) == 0
        out = capsys.readouterr().out
        assert "communication fraction" in out
        assert "iterations touching" in out
        assert "provenance" in out
        assert "host work: " in out and "engine" not in out

    def test_stats_non_simulator_record(self, tmp_path, capsys):
        record = tmp_path / "record.json"
        assert main(["run", "-a", "greedy", "-d", "mouse_gene",
                     "--json"]) == 0
        record.write_text(capsys.readouterr().out)
        assert main(["stats", str(record)]) == 0
        assert "no timeline" in capsys.readouterr().out
