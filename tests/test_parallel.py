"""Tests for the cell executor, process-parallel sweeps, the graph
cache and the benchmark-regression gate."""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine import RunContext, execute
from repro.engine.cells import (
    Cell,
    derive_cell_seed,
    materialise_cells,
    run_cells,
)
from repro.engine.spec import algorithm_names, get_spec
from repro.gpusim.spec import DGX_A100
from repro.harness.bench import (
    compare_reports,
    run_bench,
    validate_bench_report,
    write_bench_report,
)
from repro.harness.cache import GraphCache
from repro.harness.sweep import sweep_ld_gpu
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import record_into
from test_layout_memo import fresh


def _outcomes(reg: MetricsRegistry) -> dict[str, float]:
    snap = reg.snapshot()
    return {o: snap.total("repro_graph_cache_total", outcome=o)
            for o in ("hit", "miss", "corrupt")}


def _strip_wall(doc: dict) -> dict:
    doc.pop("wall_time_s", None)
    doc.pop("started_at", None)
    doc.pop("duration_s", None)
    if doc.get("provenance"):
        doc["provenance"].pop("wall_time_s", None)
    return doc


def _grid_cells(fail_index: int | None = None) -> list[Cell]:
    cells = [
        Cell("ld_gpu", config={"num_devices": nd, "num_batches": nb},
             overrides={"collect_stats": False})
        for nd in (1, 2) for nb in (None, 2)
    ]
    if fail_index is not None:
        cells[fail_index] = Cell(
            "ld_gpu", config={"num_devices": 1},
            overrides={"partition": "bogus"},
        )
    return cells


class TestDeriveCellSeed:
    def test_deterministic_and_version_stable(self):
        # sha256-based: the value is part of the reproducibility
        # contract (stored records embed derived seeds).
        assert derive_cell_seed(7, 0) == derive_cell_seed(7, 0)
        assert derive_cell_seed(7, 0) != derive_cell_seed(7, 1)
        assert derive_cell_seed(8, 0) != derive_cell_seed(7, 0)
        assert 0 <= derive_cell_seed(0, 0) < 2 ** 31

    def test_materialise_seed_policy(self):
        cells = [Cell("greedy"), Cell("greedy", seed=99)]
        mats = materialise_cells(cells, RunContext(seed=7))
        assert mats[0].ctx.seed == derive_cell_seed(7, 0)
        assert mats[1].ctx.seed == 99  # explicit cell seed wins
        # No base seed -> no derived seed.
        assert materialise_cells([Cell("greedy")])[0].ctx.seed is None


class TestRunCellsSerialVsParallel:
    def test_bit_identical_records(self, medium_graph, tmp_path):
        cells = _grid_cells()
        serial = run_cells(cells, graph=medium_graph)
        cache = GraphCache(tmp_path / "cache")
        par = run_cells(cells, graph=medium_graph, parallel=2,
                        cache=cache)
        assert len(par) == len(serial) == 4
        for s, p in zip(serial, par):
            assert s.ok and p.ok
            assert np.array_equal(s.result.mate, p.result.mate)
            assert _strip_wall(s.to_dict()) == _strip_wall(p.to_dict())

    def test_error_cell_is_isolated(self, medium_graph, tmp_path):
        cells = _grid_cells(fail_index=1)
        for parallel in (0, 2):
            records = run_cells(cells, graph=medium_graph,
                                parallel=parallel,
                                cache=GraphCache(tmp_path / "c2"))
            assert [r.status for r in records] \
                == ["ok", "error", "ok", "ok"]
            bad = records[1]
            assert bad.error["type"] == "ValueError"
            assert "bogus" in bad.error["message"]
            assert "Traceback" in bad.error["traceback"]
            assert not bad.ok and bad.sim_time is None
            # The error record round-trips like any other.
            again = json.loads(bad.to_json())
            assert again["status"] == "error"

    def test_on_error_raise(self, medium_graph):
        cells = _grid_cells(fail_index=0)
        with pytest.raises(ValueError, match="bogus"):
            run_cells(cells, graph=medium_graph, on_error="raise")
        with pytest.raises(ValueError, match="on_error"):
            run_cells(cells, graph=medium_graph, on_error="nope")

    def test_dataset_cells_resolve_registry_graphs(self, tmp_path):
        cells = [Cell("greedy", dataset="mouse_gene", quality=True),
                 Cell("suitor_seq", dataset="mouse_gene", quality=True)]
        serial = run_cells(cells)
        par = run_cells(cells, parallel=2,
                        cache=GraphCache(tmp_path / "c3"))
        for s, p in zip(serial, par):
            assert np.array_equal(s.result.mate, p.result.mate)

    def test_missing_graph_is_error_record(self):
        records = run_cells([Cell("greedy")])
        assert records[0].status == "error"
        assert records[0].error["type"] == "ValueError"

    def test_label_lands_in_extra(self, medium_graph):
        rec = run_cells([Cell("greedy", label="tagged")],
                        graph=medium_graph)[0]
        assert rec.extra["label"] == "tagged"


class TestSweepParallel:
    def test_sweep_parallel_matches_serial(self, medium_graph, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "sc"))
        serial = sweep_ld_gpu(medium_graph, device_counts=(1, 2),
                              batch_counts=(None, 2))
        par = sweep_ld_gpu(medium_graph, device_counts=(1, 2),
                           batch_counts=(None, 2), parallel=2)
        assert [vars(p) for p in par.points] \
            == [vars(p) for p in serial.points]
        assert par.best.time_s == serial.best.time_s

    def test_oom_cells_become_dash_points(self, medium_graph, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "oc"))
        n = medium_graph.num_vertices
        tiny = DGX_A100.with_device_memory(
            2 * n * 8 + (n + 1) * 8
            + medium_graph.num_directed_edges * 4)
        result = sweep_ld_gpu(medium_graph, platforms=(tiny,),
                              device_counts=(1,), batch_counts=(1, None),
                              parallel=2)
        oom = [r for r in result.records if not r.ok]
        assert len(oom) == 1
        assert oom[0].error["type"] == "DeviceOOMError"
        assert sum(1 for p in result.points if not p.ok) == 1

    def test_collect_metrics_forces_serial(self, medium_graph):
        with pytest.warns(RuntimeWarning, match="serially"):
            result = sweep_ld_gpu(medium_graph, device_counts=(1,),
                                  collect_metrics=True, parallel=2)
        assert result.metrics is not None


class TestGraphCache:
    def test_store_load_round_trip(self, medium_graph, tmp_path):
        cache = GraphCache(tmp_path)
        path, fp = cache.store(medium_graph)
        assert path.is_file() and fp.startswith("sha256:")
        g = cache.load(path, fp)
        assert g.name == medium_graph.name
        assert np.array_equal(g.weights, medium_graph.weights)

    def test_corrupt_entry_rejected(self, medium_graph, tmp_path):
        cache = GraphCache(tmp_path)
        path, fp = cache.store(medium_graph)
        with pytest.raises(ValueError, match="corrupt"):
            cache.load(path, "sha256:" + "0" * 16)

    @pytest.mark.parametrize("damage", ["truncate", "other_content"])
    def test_corrupt_entry_replaced_once(self, medium_graph, tmp_path,
                                         damage):
        """A corrupt snapshot behind a recipe reference is counted
        ``corrupt``, rebuilt once and replaced on disk: the next call is
        a verified hit, not another rebuild."""
        from repro.graph.io import save_npz
        from repro.harness.cache import _VERIFIED
        from repro.telemetry.provenance import graph_fingerprint

        cache = GraphCache(tmp_path)
        builds = []

        def build():
            builds.append(1)
            return fresh(medium_graph)

        cache.get_recipe("medium-key", build)
        fp = graph_fingerprint(medium_graph)
        path = cache.path_for("medium", fp)
        if damage == "truncate":
            path.write_bytes(path.read_bytes()[:100])
        else:  # same file name, other bytes
            save_npz(medium_graph.reweighted(medium_graph.weights * 2.0),
                     path)
        reg = MetricsRegistry()
        with record_into(reg):
            cache.get_recipe("medium-key", build)
            assert _outcomes(reg) == {"hit": 0, "miss": 0, "corrupt": 1}
            assert len(builds) == 2
            g = cache.get_recipe("medium-key", build)
            assert _outcomes(reg) == {"hit": 1, "miss": 0, "corrupt": 1}
        assert len(builds) == 2
        assert (os.path.realpath(path), fp) in _VERIFIED
        assert np.array_equal(g.weights, medium_graph.weights)

    def test_get_recipe_hit_and_miss(self, medium_graph, tmp_path):
        cache = GraphCache(tmp_path)
        builds = {"n": 0}

        def build():
            builds["n"] += 1
            return fresh(medium_graph)

        reg = MetricsRegistry()
        with record_into(reg):
            g1 = cache.get_recipe("medium-key", build)
            assert builds["n"] == 1
            assert _outcomes(reg) == {"hit": 0, "miss": 1, "corrupt": 0}
            g2 = cache.get_recipe("medium-key", build)
            assert builds["n"] == 1
            assert _outcomes(reg) == {"hit": 1, "miss": 1, "corrupt": 0}
        assert np.array_equal(g1.weights, g2.weights)

    def test_eviction_keeps_newest(self, medium_graph, path_graph,
                                   triangle, tmp_path):
        cache = GraphCache(tmp_path, max_entries=2)
        for g in (medium_graph, path_graph, triangle):
            cache.store(g)
            os.utime(cache.entries()[-1])  # strictly increasing mtimes
        entries = cache.entries()
        assert len(entries) == 2
        assert not any("medium" in p.name for p in entries)

    def test_disabled_by_env(self, monkeypatch):
        from repro.harness.cache import cache_disabled

        monkeypatch.setenv("REPRO_GRAPH_CACHE", "off")
        assert cache_disabled()
        monkeypatch.setenv("REPRO_GRAPH_CACHE", "/tmp/somewhere")
        assert not cache_disabled()

    def test_verification_memoised_per_path(self, medium_graph,
                                            tmp_path, monkeypatch):
        """The fingerprint is re-derived on the first load of a path
        only — warm loads (a worker's second cell) skip the re-hash."""
        import repro.telemetry.provenance as prov

        cache = GraphCache(tmp_path)
        path, fp = cache.store(medium_graph)
        calls = {"n": 0}
        real = prov.graph_fingerprint

        def counting(graph):
            calls["n"] += 1
            return real(graph)

        monkeypatch.setattr(prov, "graph_fingerprint", counting)
        cache.load(path, fp)
        assert calls["n"] == 1  # cold: verified
        cache.load(path, fp)
        GraphCache(tmp_path).load(path, fp)  # memo spans instances
        assert calls["n"] == 1  # warm: memoised
        # Loading without an expected fingerprint never verifies.
        cache.load(path)
        assert calls["n"] == 1


class TestExecuteApi:
    def test_execute_accepts_spec_object(self, medium_graph):
        spec = get_spec("greedy")
        rec = execute(spec, medium_graph)
        assert rec.algorithm == "greedy" and rec.ok

    def test_config_normalised_to_dict_for_all(self, medium_graph):
        # The api contract: every registered algorithm's RunRecord JSON
        # round-trips, and stats["config"] is a plain dict (or absent).
        for name in algorithm_names():
            rec = execute(name, medium_graph, RunContext(num_devices=2))
            cfg = rec.result.stats.get("config")
            assert cfg is None or isinstance(cfg, dict), name
            again = json.loads(rec.to_json())
            assert again["algorithm"] == name
            assert again["status"] == "ok"

    def test_parallel_safety_tag_present(self):
        for name in algorithm_names():
            tags = get_spec(name).capability_tags
            assert ("parallel-safe" in tags) ^ ("serial-only" in tags)


class TestBench:
    def test_report_schema_and_comparison(self):
        report = run_bench("smoke", repeats=1)
        validate_bench_report(report)
        assert compare_reports(report, report) == []
        worse = json.loads(json.dumps(report))
        w = next(x for x in worse["workloads"]
                 if x["median_sim_time_s"] is not None)
        w["median_sim_time_s"] *= 1.5
        problems = compare_reports(worse, report, tolerance=0.05)
        assert len(problems) == 1 and w["name"] in problems[0]
        # Within tolerance passes.
        assert compare_reports(worse, report, tolerance=0.6) == []

    def test_regressions_only_fail_one_way(self):
        report = run_bench("smoke", repeats=1)
        faster = json.loads(json.dumps(report))
        for w in faster["workloads"]:
            if w["median_sim_time_s"] is not None:
                w["median_sim_time_s"] *= 0.5
        assert compare_reports(faster, report) == []

    def test_missing_workload_flagged(self):
        report = run_bench("smoke", repeats=1)
        partial = json.loads(json.dumps(report))
        dropped = partial["workloads"].pop()
        problems = compare_reports(partial, report)
        assert any(dropped["name"] in p for p in problems)

    def test_graph_plane_host_and_staging_gates(self):
        report = run_bench("graph_plane", repeats=1)
        validate_bench_report(report)
        assert all(w["status"] == "ok" for w in report["workloads"])
        # Every workload records its deterministic host-engine work,
        # and the suite measured the warm-start comparison.
        assert all(w["host_entries_scanned"] is not None
                   for w in report["workloads"])
        assert report["staging"]["median_npz_load_s"] > 0
        assert compare_reports(report, report) == []
        # More host work than the baseline recorded fails the gate.
        worse = json.loads(json.dumps(report))
        w = next(x for x in worse["workloads"]
                 if x["host_entries_scanned"])
        w["host_entries_scanned"] *= 2
        problems = compare_reports(worse, report)
        assert len(problems) == 1
        assert "host_entries_scanned" in problems[0]
        # shm attach regressing past the npz reload fails the gate.
        slower = json.loads(json.dumps(report))
        slower["staging"]["speedup"] = 0.5
        problems = compare_reports(slower, report)
        assert any("staging" in p for p in problems)
        # A baseline without the metric gates sim_time only (upgrade
        # path: old baselines keep working).
        legacy = json.loads(json.dumps(report))
        for x in legacy["workloads"]:
            x.pop("host_entries_scanned")
        legacy.pop("staging")
        assert compare_reports(worse, legacy) == []

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError, match="schema"):
            validate_bench_report({"schema": 99})
        with pytest.raises(ValueError, match="workloads"):
            validate_bench_report({"schema": 1, "suite": "s",
                                   "repeats": 1, "workloads": [],
                                   "provenance": {}})

    def test_write_report(self, tmp_path):
        report = run_bench("smoke", repeats=1)
        out = write_bench_report(report, tmp_path / "BENCH_smoke.json")
        validate_bench_report(json.loads(out.read_text()))


class TestCliRedesign:
    def test_sweep_parallel_flag(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path))
        assert main(["sweep", "-d", "mouse_gene", "-n", "1", "2",
                     "--parallel", "2"]) == 0
        assert "best:" in capsys.readouterr().out

    def test_sweep_json(self, capsys):
        assert main(["sweep", "-d", "mouse_gene", "-n", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best"]["num_devices"] == 1
        assert doc["records"][0]["status"] == "ok"

    def test_run_rejects_device_grid(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["run", "-a", "ld_gpu", "-d", "mouse_gene",
                  "-n", "1", "2"])
        assert e.value.code == 2

    def test_stats_rejects_inapplicable_flags(self, tmp_path):
        record = tmp_path / "r.json"
        record.write_text("{}")
        with pytest.raises(SystemExit) as e:
            main(["stats", str(record), "--devices", "2"])
        assert e.value.code == 2

    def test_run_platform_flag(self, capsys):
        assert main(["run", "-a", "ld_gpu", "-d", "mouse_gene",
                     "-n", "2", "--platform", "DGX-2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["platform"] == "DGX-2"

    def test_bench_writes_report_and_gates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        base = tmp_path / "baseline.json"
        # Sim times are deterministic, so the default gate (the
        # committed benchmarks/baseline_smoke.json when run from the
        # repo root) passes.
        assert main(["bench", "--suite", "smoke", "--repeats", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate_bench_report(doc)
        # Gate passes against itself...
        base.write_text(out.read_text())
        assert main(["bench", "--suite", "smoke", "--repeats", "1",
                     "--out", str(out), "--baseline", str(base)]) == 0
        # ...and fails (exit 1) against an impossibly fast baseline.
        fast = doc
        for w in fast["workloads"]:
            if w["median_sim_time_s"] is not None:
                w["median_sim_time_s"] /= 10.0
        base.write_text(json.dumps(fast))
        assert main(["bench", "--suite", "smoke", "--repeats", "1",
                     "--out", str(out), "--baseline", str(base)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_experiment_parallel_and_json(self, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path))
        assert main(["experiment", "fig5", "--quick",
                     "--parallel", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "fig5" and doc["rows"]

    def test_list_algorithms_shows_parallel_tag(self, capsys):
        assert main(["list", "algorithms"]) == 0
        assert "parallel-safe" in capsys.readouterr().out
