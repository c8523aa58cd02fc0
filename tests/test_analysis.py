"""Tests for repro.analysis: queries, stats, trajectories, the report
renderers and their CLI faces — plus the satellite wall-clock fields
(RunRecord v4) and the store's SQL read path they build on."""

import json
import math
import statistics
import time

import pytest

from repro.analysis.queries import (
    Aggregate,
    METRICS,
    ResultSet,
    RunQuery,
    metric_value,
)
from repro.analysis.report import (
    build_report_data,
    render_html,
    render_json,
    render_markdown,
    resolve_since,
    write_report,
)
from repro.analysis.stats_tests import (
    HAVE_SCIPY,
    bootstrap_median_ci,
    holm_adjust,
    rank_table,
    rankdata,
    wilcoxon_signed_rank,
)
from repro.analysis.trajectory import (
    TrajectoryPoint,
    flag_regressions,
    load_baselines,
    suite_trajectories,
)
from repro.cli import main
from repro.engine.cells import Cell, run_cells
from repro.engine.record import RunRecord
from repro.harness.bench import run_bench
from repro.store import RunStore


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """One store holding a small cross-algorithm grid plus a stored
    bench run (suite-qualified labels) — shared, read-only."""
    db = tmp_path_factory.mktemp("analysis") / "runs.db"
    store = RunStore(db)
    cells = [
        Cell(algo, dataset=ds,
             config={"num_devices": nd} if algo == "ld_gpu" else {})
        for ds in ("mouse_gene", "GAP-kron")
        for algo, nd in (("ld_gpu", 1), ("ld_gpu", 2), ("sr_gpu", 1))
    ]
    run_cells(cells, store=store)
    run_bench("smoke", repeats=2, store=store)
    return store


class TestStoreSelect:
    def test_algorithm_and_status_narrow_in_sql(self, filled_store):
        rows = filled_store.select(algorithm="ld_gpu", status="done")
        assert rows and all(r.algorithm == "ld_gpu"
                            and r.status == "done" for r in rows)

    def test_iterable_filters_and_ordering(self, filled_store):
        rows = filled_store.select(algorithm=("ld_gpu", "sr_gpu"))
        created = [r.created_at for r in rows]
        assert created == sorted(created)
        assert {r.algorithm for r in rows} == {"ld_gpu", "sr_gpu"}

    def test_created_range(self, filled_store):
        rows = filled_store.select()
        cut = rows[len(rows) // 2].created_at
        early = filled_store.select(created_before=cut)
        late = filled_store.select(created_after=cut)
        assert all(r.created_at <= cut for r in early)
        assert all(r.created_at >= cut for r in late)
        assert len(early) + len(late) >= len(rows)  # overlap at cut

    def test_no_filters_is_everything(self, filled_store):
        assert len(filled_store.select()) == len(filled_store.runs())


class TestWallClockFields:
    def test_executor_stamps_started_at_and_duration(self,
                                                     filled_store):
        rec = filled_store.select(algorithm="ld_gpu",
                                  status="done")[0].record()
        assert rec.started_at is not None
        assert abs(rec.started_at - time.time()) < 3600
        assert rec.duration_s is not None
        assert rec.duration_s >= rec.wall_time_s

    def test_v3_documents_default_to_none(self):
        doc = {"schema": 3, "algorithm": "x", "graph": "g",
               "num_vertices": 1, "num_directed_edges": 0,
               "weight": 0.0, "matched_edges": 0, "iterations": 0}
        rec = RunRecord.from_dict(doc)
        assert rec.started_at is None and rec.duration_s is None


class TestRunQuery:
    def test_scalar_filters_normalise_to_tuples(self):
        q = RunQuery(algorithm="ld_gpu", dataset=["a", "b"],
                     status="done")
        assert q.algorithm == ("ld_gpu",)
        assert q.dataset == ("a", "b")
        assert "algorithm=ld_gpu" in q.describe()

    def test_empty_query_describes_all(self):
        assert RunQuery().describe() == "(all runs)"

    def test_unknown_metric_raises(self):
        rec = RunRecord("a", "g", 1, 0, 0.0, 0, 0)
        with pytest.raises(KeyError, match="unknown metric"):
            metric_value(rec, "nope")


class TestResultSet:
    def test_sql_and_config_refinement(self, filled_store):
        rs = ResultSet(filled_store,
                       RunQuery(algorithm="ld_gpu", status="done",
                                num_devices=2))
        assert rs.rows
        for row in rs.rows:
            assert row.config.get("num_devices") == 2

    def test_label_prefix_finds_bench_cells(self, filled_store):
        rs = ResultSet(filled_store,
                       RunQuery(label_prefix="smoke:"))
        labels = {r.config["label"] for r in rs.rows}
        assert labels and all(l.startswith("smoke:") for l in labels)

    def test_git_prefix_refines_records(self, filled_store):
        rs = ResultSet(filled_store, RunQuery(status="done"))
        git = (rs.records[0].provenance or {}).get("git")
        assert git
        hit = ResultSet(filled_store,
                        RunQuery(status="done", git=git[:4]))
        miss = ResultSet(filled_store,
                         RunQuery(status="done",
                                  git="no-such-sha-prefix"))
        assert hit.records and not miss.records

    def test_replicate_groups_collapse_repeats(self, filled_store):
        rs = ResultSet(filled_store, RunQuery(label_prefix="smoke:"))
        sizes = {len(v) for v in rs.replicate_groups.values()}
        assert sizes == {2}  # repeats=2, everything else identical

    def test_aggregate_matches_manual_median(self, filled_store):
        rs = ResultSet(filled_store,
                       RunQuery(algorithm="ld_gpu", status="done"))
        aggs = rs.aggregate("sim_time", by=("graph",))
        for (graph,), agg in aggs.items():
            manual = statistics.median(
                r.sim_time for r in rs.ok_records
                if r.graph == graph and r.sim_time is not None)
            assert agg.median == pytest.approx(manual)
            assert agg.ci_lo <= agg.median <= agg.ci_hi
            assert agg.n >= 1

    def test_aggregate_is_memoised(self, filled_store):
        rs = ResultSet(filled_store, RunQuery(status="done"))
        a = rs.aggregate("sim_time")
        assert rs.aggregate("sim_time") is a

    def test_pivot_shape(self, filled_store):
        rs = ResultSet(filled_store, RunQuery(status="done"))
        headers, rows = rs.pivot("sim_time", row_key="graph",
                                 col_key="algorithm")
        assert headers[0] == "graph"
        assert all(len(r) == len(headers) for r in rows)

    def test_aggregate_of_empty_values(self):
        assert Aggregate.of([]) is None
        one = Aggregate.of([2.0])
        assert one.n == 1 and one.stdev == 0.0
        assert (one.ci_lo, one.ci_hi) == (2.0, 2.0)

    def test_metrics_registry_is_callable(self):
        rec = RunRecord("a", "g", 1, 0, 5.0, 3, 2, sim_time=0.5,
                        extra={"host_entries_scanned": 7})
        assert metric_value(rec, "weight") == 5.0
        assert metric_value(rec, "host_entries_scanned") == 7.0
        assert set(METRICS) >= {"sim_time", "wall_time_s",
                                "duration_s"}


class TestStatsTests:
    def test_rankdata_ties_average(self):
        assert rankdata([10.0, 20.0, 20.0, 30.0]) \
            == [1.0, 2.5, 2.5, 4.0]

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    @pytest.mark.parametrize("x,y", [
        ([1.2, 3.4, 2.2, 5.5, 4.1, 2.0, 7.7],
         [1.5, 3.1, 2.9, 5.0, 4.9, 2.0, 8.1]),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
         [1.1, 1.9, 3.3, 3.6, 5.4, 5.6]),   # tied |d| groups
        ([5.0, 5.0, 2.0, 9.0, 1.0, 4.0, 4.0, 8.0],
         [4.0, 6.0, 2.5, 7.0, 1.5, 4.5, 3.0, 9.0]),
    ])
    def test_fallback_agrees_with_scipy(self, x, y):
        a = wilcoxon_signed_rank(x, y)
        b = wilcoxon_signed_rank(x, y, force_fallback=True)
        assert a.method == "scipy" and b.method == "fallback"
        assert b.statistic == pytest.approx(a.statistic, abs=1e-12)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-10)

    def test_fallback_is_deterministic_without_scipy(self):
        r1 = wilcoxon_signed_rank([1, 2, 3, 4, 5], [2, 1, 4, 3, 7],
                                  force_fallback=True)
        r2 = wilcoxon_signed_rank([1, 2, 3, 4, 5], [2, 1, 4, 3, 7],
                                  force_fallback=True)
        assert (r1.statistic, r1.p_value) == (r2.statistic, r2.p_value)
        assert 0.0 <= r1.p_value <= 1.0

    def test_all_zero_diffs_degenerate(self):
        res = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert (res.statistic, res.p_value, res.n) == (0.0, 1.0, 0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="differ in length"):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])

    def test_bootstrap_deterministic_and_ordered(self):
        vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        lo1, hi1 = bootstrap_median_ci(vals)
        lo2, hi2 = bootstrap_median_ci(vals)
        assert (lo1, hi1) == (lo2, hi2)
        assert min(vals) <= lo1 <= hi1 <= max(vals)

    def test_bootstrap_degenerate_inputs(self):
        assert bootstrap_median_ci([7.0]) == (7.0, 7.0)
        lo, hi = bootstrap_median_ci([])
        assert math.isnan(lo) and math.isnan(hi)

    def test_rank_table_orders_best_first(self):
        scores = {"g1": {"fast": 1.0, "slow": 2.0, "mid": 1.5},
                  "g2": {"fast": 1.0, "slow": 3.0, "mid": 2.0},
                  "g3": {"fast": 2.0, "slow": 4.0}}
        table = rank_table(scores)
        assert [g for g, _, _ in table] == ["fast", "mid", "slow"]
        assert table[0][1] == 1.0
        assert dict((g, n) for g, _, n in table)["mid"] == 2

    def test_holm_adjust_monotone_and_clipped(self):
        adj = holm_adjust([0.01, 0.04, 0.03, 0.9])
        assert adj[0] == pytest.approx(0.04)
        assert all(0.0 <= p <= 1.0 for p in adj)
        assert adj[3] == pytest.approx(0.9)
        assert holm_adjust([]) == []


class TestTrajectory:
    def test_load_baselines_from_repo(self):
        docs = load_baselines("benchmarks")
        assert "smoke" in docs
        assert docs["smoke"]["workloads"]

    def test_merged_series_baseline_first_then_store(self,
                                                     filled_store):
        trajs = suite_trajectories(filled_store,
                                   bench_dir="benchmarks",
                                   suites=["smoke"])
        assert set(trajs) == {"smoke"}
        series = trajs["smoke"]["ld_gpu-1dev"]
        assert series[0].source == "baseline"
        assert series[-1].source == "store"
        assert series[-1].n == 2  # repeats collapsed to one point

    def test_store_points_require_qualified_labels(self,
                                                   filled_store):
        trajs = suite_trajectories(filled_store, bench_dir="no-dir")
        for entries in trajs.values():
            for points in entries.values():
                assert all(p.source == "store" for p in points)

    def test_flag_regressions_trips_on_slowdown(self):
        mk = lambda v, src: TrajectoryPoint(
            git="x", source=src, n=1,
            metrics={"median_sim_time_s": v,
                     "host_entries_scanned": None})
        trajs = {"s": {"slow": [mk(1.0, "baseline"),
                                mk(1.2, "store")],
                       "flat": [mk(1.0, "baseline"),
                                mk(1.0, "store")],
                       "fast": [mk(1.0, "baseline"),
                                mk(0.5, "store")]}}
        flags = flag_regressions(trajs, tolerance=0.05)
        verdicts = {f.entry: f.flagged for f in flags}
        assert verdicts == {"slow": True, "flat": False,
                            "fast": False}
        slow = next(f for f in flags if f.entry == "slow")
        assert slow.ratio == pytest.approx(1.2)
        assert slow.reference_source == "baseline"

    def test_coreset_metrics_gated_like_ci(self):
        # compare_reports fails a 10% peak_shard_edges growth; the
        # report's trajectory must give the same verdict.
        from repro.analysis.trajectory import _baseline_points

        doc = {"provenance": {"git": "base"}, "repeats": 1,
               "workloads": [{"name": "w", "status": "ok",
                              "median_sim_time_s": None,
                              "peak_shard_edges": 100,
                              "approx_ratio_vs_blossom": 0.8}]}
        base = _baseline_points(doc)["w"]
        later = TrajectoryPoint(
            git="later", source="store", n=1,
            metrics={"peak_shard_edges": 110,
                     "approx_ratio_vs_blossom": 0.7})
        flags = {f.metric: f for f in flag_regressions(
            {"coreset": {"w": [base, later]}}, tolerance=0.05)}
        assert flags["peak_shard_edges"].flagged
        assert flags["peak_shard_edges"].ratio == pytest.approx(1.1)
        # approx_ratio_vs_blossom regresses downwards
        assert flags["approx_ratio_vs_blossom"].flagged
        steady = TrajectoryPoint(
            git="later", source="store", n=1,
            metrics={"peak_shard_edges": 100,
                     "approx_ratio_vs_blossom": 0.9})
        assert not any(f.flagged for f in flag_regressions(
            {"coreset": {"w": [base, steady]}}))

    def test_store_points_carry_coreset_metrics(self, tmp_path):
        from repro.analysis.trajectory import store_trajectories
        from repro.harness.bench import SUITES

        w = next(w for w in SUITES["coreset"]
                 if w.algorithm == "coreset_greedy")
        store = RunStore(tmp_path / "runs.db")
        run_cells([w.cell(replicate=0, suite="coreset")], store=store)
        point = store_trajectories(store)["coreset"][w.name][0]
        assert point.metrics["peak_shard_edges"] > 0

    def test_single_point_series_never_flag(self):
        trajs = {"s": {"only": [TrajectoryPoint(
            git=None, source="baseline", n=1,
            metrics={"median_sim_time_s": 1.0})]}}
        assert flag_regressions(trajs) == []


class TestReportBuild:
    @pytest.fixture(scope="class")
    def data(self, filled_store):
        return build_report_data(filled_store, bench_dir="benchmarks")

    def test_data_is_json_safe(self, data):
        json.dumps(data)  # no repr fallbacks needed

    def test_paper_table_recomputed(self, data):
        t = data["exec_table"]
        assert t["headers"][0] == "graph"
        assert t["rows"]
        assert any(isinstance(c, float) for row in t["rows"]
                   for c in row[1:])

    def test_significance_pairs_paired_over_graphs(self, data):
        pairs = data["significance"]["pairs"]
        assert any(p["a"] == "ld_gpu" and p["b"] == "sr_gpu"
                   for p in pairs)
        for p in pairs:
            assert 0.0 <= p["p_value"] <= 1.0
            assert p["p_value"] <= p["p_adjusted"] <= 1.0

    def test_trajectory_and_gate_sections(self, data):
        assert "smoke" in data["trajectories"]
        assert isinstance(data["regressions"], list)
        assert data["regressions_flagged"] == sum(
            1 for f in data["regressions"] if f["flagged"])

    def test_reconciliation_balances(self, data):
        rec = data["reconciliation"]
        assert rec["n_checked"] > 0
        assert rec["n_mismatched"] == 0

    def test_provenance_appendix(self, data):
        envs = data["provenance"]["environments"]
        assert envs and envs[0]["git"]
        assert sum(e["n_records"] for e in envs) \
            == data["overview"]["n_records"]

    def test_since_git_filter_excludes_everything(self, filled_store):
        data = build_report_data(filled_store, git="not-a-sha",
                                 bench_dir="no-dir")
        assert data["overview"]["n_records"] == 0

    def test_resolve_since(self):
        assert resolve_since(None) == {}
        out = resolve_since("2026-01-02")
        assert "since" in out and out["since"] > 0
        assert resolve_since("abc1234") == {"git": "abc1234"}


class TestReportRender:
    @pytest.fixture(scope="class")
    def data(self, filled_store):
        return build_report_data(filled_store, bench_dir="benchmarks")

    def test_html_is_standalone_no_js_no_network(self, data):
        html = render_html(data)
        low = html.lower()
        assert "<script" not in low
        assert "http://" not in html and "https://" not in html
        assert "@import" not in html and "url(" not in low

    def test_html_has_tables_charts_and_appendix(self, data):
        html = render_html(data)
        assert "<table>" in html
        assert "<svg" in html and "var(--series-1)" in html
        assert "Execution times" in html
        assert "Provenance appendix" in html
        assert "prefers-color-scheme" in html  # dark mode selected

    def test_html_escapes_values(self, filled_store):
        data = build_report_data(filled_store, bench_dir="no-dir")
        data["title"] = "<&evil>"
        assert "<&evil>" not in render_html(data)
        assert "&lt;&amp;evil&gt;" in render_html(data)

    def test_markdown_render(self, data):
        md = render_markdown(data)
        assert md.startswith("# ")
        assert "Execution times" in md
        assert "Gate: OK" in md or "Gate: REGRESSED" in md

    def test_json_render_parses_back(self, data):
        assert json.loads(render_json(data))["schema"] == data["schema"]

    def test_write_report_formats(self, filled_store, tmp_path):
        for fmt, name in (("html", "index.html"),
                          ("md", "report.md"),
                          ("json", "report.json")):
            path, data = write_report(filled_store,
                                      out_dir=tmp_path / "r",
                                      fmt=fmt, bench_dir="no-dir")
            assert path.name == name and path.is_file()
            assert path.stat().st_size > 0

    def test_write_report_rejects_unknown_format(self, filled_store):
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(filled_store, fmt="pdf")


class TestCLI:
    def test_report_command(self, filled_store, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = main(["report", "--store", str(filled_store.path),
                   "--out", str(out), "--format", "html", "--gate"])
        assert rc == 0
        assert (out / "index.html").is_file()
        assert "gated regressions" in capsys.readouterr().out

    def test_analysis_query_json(self, filled_store, capsys):
        rc = main(["analysis", "query", "--store",
                   str(filled_store.path), "-a", "ld_gpu",
                   "--status", "done", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc and all(d["algorithm"] == "ld_gpu" for d in doc)

    def test_analysis_query_aggregate(self, filled_store, capsys):
        rc = main(["analysis", "query", "--store",
                   str(filled_store.path), "--metric", "sim_time",
                   "--group-by", "algorithm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "median" in out and "ld_gpu" in out

    def test_analysis_query_unknown_metric_is_usage_error(
            self, filled_store):
        with pytest.raises(SystemExit) as exc:
            main(["analysis", "query", "--store",
                  str(filled_store.path), "--metric", "bogus"])
        assert exc.value.code == 2

    def test_store_ls_filters(self, filled_store, capsys):
        rc = main(["store", "ls", "--store", str(filled_store.path),
                   "-a", "sr_gpu", "--status", "done", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc and all(d["algorithm"] == "sr_gpu"
                           and d["status"] == "done" for d in doc)


class TestPointingEngineRows:
    """Rows of the ``pointing`` suite's cells next to rows stored while
    cell configs still carried a ``pointing_engine`` field."""

    @pytest.fixture(scope="class")
    def engine_store(self, tmp_path_factory):
        from repro.harness.bench import SUITES

        store = RunStore(tmp_path_factory.mktemp("engines") / "runs.db")
        run_cells([w.cell(replicate=k, suite="pointing")
                   for w in SUITES["pointing"]
                   if w.name == "ld_seq-tie-clique-index"
                   for k in range(2)], store=store)
        return store

    def test_pre_change_row_shares_replicate_key(self, engine_store):
        from dataclasses import replace

        rows = ResultSet(engine_store, RunQuery()).rows
        assert len(rows) == 2
        for row in rows:
            key = ResultSet.replicate_key(row)
            # Written by a bench run before the field was dropped.
            old = replace(row, config={**row.config,
                                       "pointing_engine": None})
            assert ResultSet.replicate_key(old) == key
            # Written by ``run --pointing-engine segment``: another
            # configuration, which no longer runs.
            old = replace(row, config={**row.config,
                                       "pointing_engine": "segment"})
            assert ResultSet.replicate_key(old) != key
