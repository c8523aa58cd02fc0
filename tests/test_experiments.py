"""Golden-shape tests for every paper table/figure experiment (quick
sweeps).  These encode the qualitative claims DESIGN.md §6 lists; the
full-size versions run under benchmarks/."""

import inspect
import json
import sqlite3

import numpy as np
import pytest

from repro.cli import main
from repro.engine import RunContext
from repro.engine import cells as cells_mod
from repro.engine.cells import Cell, run_cells
from repro.engine.errors import ConfigurationDivergenceError
from repro.harness import experiments as exp
from repro.gpusim.timeline import COMPONENTS
from repro.store.db import RunStore


@pytest.fixture(scope="module")
def table1():
    return exp.table1_execution_times(quick=True)


class TestTable1:
    def test_columns(self, table1):
        assert table1.headers[0] == "graph"
        assert len(table1.rows) == 4  # 2 LARGE + 2 SMALL in quick mode

    def test_ld_gpu_beats_sr_omp_on_small(self, table1):
        by_name = {r[0]: r for r in table1.rows}
        for name in ("Queen_4147", "mycielskian18"):
            assert by_name[name][6] > 1.0  # vs SR-OMP speedup

    def test_sr_gpu_oom_on_large(self, table1):
        by_name = {r[0]: r for r in table1.rows}
        assert by_name["AGATHA-2015"][2] is None
        assert by_name["uk-2007-05"][2] is None

    def test_render_has_dashes(self, table1):
        assert "-" in table1.render()


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self):
        return exp.table2_quality(quick=True)

    def test_quality_band(self, table2):
        """Paper: per-graph gaps 2.6–12.6%, geo-mean ≈ 6.4."""
        geo = table2.rows[-1]
        assert geo[0] == "Geo. Mean"
        assert 1.0 < geo[1] < 20.0

    def test_ld_and_sr_nearly_equal(self, table2):
        for row in table2.rows[:-1]:
            assert row[1] == pytest.approx(row[2], abs=1.0)

    def test_lemon_times_recorded(self, table2):
        assert all(v > 0 for v in table2.extra["lemon_seconds"].values())


class TestTable3:
    @pytest.fixture(scope="class")
    def table3(self):
        return exp.table3_a100_vs_v100(quick=True)

    def test_a100_always_faster(self, table3):
        for row in table3.rows:
            assert row[1] > 1.0

    def test_geomean_band(self, table3):
        """Paper geo-mean 2.35x; accept the 1.4–4x band."""
        geo = table3.rows[-1][1]
        assert 1.4 < geo < 4.0


class TestTable4:
    def test_sr_gpu_wins_majority_small(self):
        r = exp.table4_single_gpu(quick=False)
        wins = sum(1 for row in r.rows
                   if row[2] is not None and row[2] < row[1])
        assert wins >= 5  # paper: 5/8

    def test_ld_within_small_factor(self):
        """The paper's Table IV keeps LD-GPU within ~0.03–1.5× of SR-GPU
        on the SMALL graphs (com-Friendster is the batching-divergence
        row, see EXPERIMENTS.md); our model keeps the SMALL rows within
        an order of magnitude."""
        r = exp.table4_single_gpu(quick=False)
        for row in r.rows:
            if row[0] == "com-Friendster" or row[2] is None:
                continue
            assert row[1] / row[2] < 10.0


class TestTable5:
    def test_cugraph_order_of_magnitude(self):
        r = exp.table5_cugraph(quick=True)
        for row in r.rows:
            assert row[3] > 3.0  # cuGraph/LD ratio


class TestTable6:
    def test_ld_wins_fom(self):
        r = exp.table6_fom(quick=True)
        for row in r.rows[1:]:  # AGATHA needs 8 devices; skip in quick
            assert row[1] > row[2]


class TestFig4:
    def test_superlinear_region_exists(self):
        r = exp.fig4_strong_scaling(quick=True)
        best = max(
            s for row in r.rows for s in row[1:] if s is not None
        )
        assert best > len(r.extra["devices"])  # superlinear somewhere


class TestFig5:
    def test_comm_dominates_multi_gpu(self):
        r = exp.fig5_components(quick=True)
        comm_cols = [r.headers.index(c) for c in
                     ("allreduce_pointers", "allreduce_mate",
                      "batch_transfer", "sync")]
        multi = [row for row in r.rows if row[1] >= 4]
        assert multi
        for row in multi:
            assert sum(row[c] for c in comm_cols) > 50.0

    def test_fractions_sum_to_100(self):
        r = exp.fig5_components(quick=True)
        for row in r.rows:
            assert sum(row[2:]) == pytest.approx(100.0, abs=0.1)


class TestFig6:
    def test_batched_configs_scale(self):
        """Paper: forced batching shows scalability with devices while
        the default single batch does not."""
        r = exp.fig6_batch_scaling(quick=True)
        for row in r.rows:
            nb = row[1]
            times = row[2:]
            if nb > 1:
                assert times[-1] < times[0]  # improves with devices


class TestFig7:
    def test_transfer_dominates_when_forced(self):
        r = exp.fig7_kmer_components(quick=True)
        idx = r.headers.index("batch_transfer")
        forced = [row for row in r.rows if row[0] > 1]
        assert all(row[idx] > 50.0 for row in forced)


class TestFig8:
    def test_most_iterations_touch_few_edges(self):
        r = exp.fig8_warp_work(quick=True)
        idx = r.headers.index("%iters <20% edges")
        for row in r.rows:
            assert row[idx] >= 50.0

    def test_series_start_at_full_scan(self):
        r = exp.fig8_warp_work(quick=True)
        for series in r.extra["series"].values():
            assert series[0] == pytest.approx(1.0)


class TestFig9:
    def test_nvlink_always_at_least_parity(self):
        r = exp.fig9_interconnect(quick=True)
        for s in r.extra["all_speedups"]:
            assert s >= 1.0

    def test_average_band(self):
        """Paper: ~3x average; accept 1.5–12x on the quick subset."""
        r = exp.fig9_interconnect(quick=True)
        avg = np.mean(r.extra["all_speedups"])
        assert 1.5 < avg < 12.0


class TestFig10:
    def test_a100_platform_wins_at_same_count(self):
        r = exp.fig10_platforms(quick=True)
        times = {(row[0], row[1], row[2]): row[4] for row in r.rows}
        for (g, plat, nd), t in times.items():
            if plat == "DGX-A100" and (g, "DGX-2", nd) in times:
                assert t < times[(g, "DGX-2", nd)]


class TestFig11:
    def test_mouse_gene_is_outlier(self):
        r = exp.fig11_occupancy(quick=False)
        by_name = {row[0]: row for row in r.rows}
        mean_idx = r.headers.index("mean")
        second_idx = r.headers.index("second-half")
        # outliers collapse in the later iterations...
        assert by_name["mouse_gene"][second_idx] < 30.0
        assert by_name["mycielskian18"][second_idx] < 60.0
        # ...while the big graphs stay near-saturated
        assert by_name["GAP-urand"][mean_idx] > 85.0
        assert by_name["uk-2007-05"][mean_idx] > 85.0


# ------------------------------------------------------------------ #
# Every experiment is a stored cell grid run by one driver
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """``first_run(name)`` -> (store path, ``to_json()``) of a serial
    quick run that filled a fresh store; computed once per name."""
    root = tmp_path_factory.mktemp("experiment-stores")
    done: dict[str, tuple] = {}

    def get(name):
        if name not in done:
            db = root / f"{name}.db"
            result = exp.run_experiment(name, quick=True, store=RunStore(db))
            done[name] = (db, result.to_json())
        return done[name]

    return get


class TestDriver:
    @pytest.mark.parametrize("name", sorted(exp.EXPERIMENTS))
    def test_second_run_executes_no_cell(self, name, first_run):
        db, doc = first_run(name)
        store = RunStore(db)
        again = exp.run_experiment(name, quick=True, store=store)
        assert store.claims == 0
        assert store.hits > 0
        assert again.to_json() == doc

    @pytest.mark.parametrize("name", ["table2", "fig8"])
    def test_parallel_equals_serial(self, name, first_run, tmp_path,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "cache"))
        _, doc = first_run(name)
        assert exp.run_experiment(name, quick=True,
                                  parallel=2).to_json() == doc

    @pytest.mark.parametrize("name,algorithm,dataset,where", [
        ("table5", "cugraph", "mycielskian18", r"\(platform="),
        ("fig5", "ld_gpu", "AGATHA-2015", r"num_devices=4"),
    ])
    def test_crashed_cell_raises_naming_it(self, monkeypatch, name,
                                           algorithm, dataset, where):
        real = cells_mod.execute

        def crash(alg, g, ctx, **kwargs):
            if (alg, ctx.dataset) == (algorithm, dataset) and \
                    ctx.num_devices == 4:
                raise ValueError("injected crash")
            return real(alg, g, ctx, **kwargs)

        monkeypatch.setattr(cells_mod, "execute", crash)
        with pytest.raises(RuntimeError,
                           match=f"cell {algorithm} on {dataset} .*{where}"
                                 r".*\(ValueError: injected crash\)"):
            exp.run_experiment(name, quick=True)

    def test_divergent_ld_gpu_grid_raises(self, monkeypatch):
        """Lemma III.1 holds on every experiment's freshly executed
        LD-GPU records, not only inside best_ld_gpu."""
        real = cells_mod.execute

        def diverge(alg, g, ctx, **kwargs):
            record = real(alg, g, ctx, **kwargs)
            if alg == "ld_gpu" and ctx.num_devices == 2:
                record.result.mate = np.roll(record.result.mate, 1)
            return record

        monkeypatch.setattr(cells_mod, "execute", diverge)
        with pytest.raises(ConfigurationDivergenceError,
                           match="2 devices .* disagrees with .*1 devices"):
            exp.table1_execution_times(quick=True)

    def test_fig11_is_not_served_records_without_occupancy(self,
                                                           tmp_path):
        """A store filled before ld_gpu recorded occupancy holds plain
        ld_gpu records without it; Fig. 11 must not be served them."""
        db = tmp_path / "old.db"
        run_cells([Cell("ld_gpu", dataset="AGATHA-2015",
                        ctx=RunContext.for_dataset("AGATHA-2015"))],
                  store=RunStore(db))
        conn = sqlite3.connect(db)
        (fp, text), = conn.execute("SELECT fingerprint, record_json "
                                   "FROM runs")
        doc = json.loads(text)
        del doc["extra"]["occupancy"]
        with conn:
            conn.execute("UPDATE runs SET record_json=? WHERE "
                         "fingerprint=?", (json.dumps(doc), fp))
        conn.close()
        result = exp.run_experiment("fig11", quick=True, store=db)
        assert result.to_json() == \
            exp.run_experiment("fig11", quick=True).to_json()

    def test_public_names_are_the_registry(self):
        public = [getattr(exp, n) for n in exp.__all__
                  if n.startswith(("table", "fig"))]
        assert public == list(exp.EXPERIMENTS.values())
        for experiment in public:
            assert list(inspect.signature(experiment).parameters) == \
                ["quick", "parallel", "store"]

    def test_cli_experiment_fills_the_store(self, tmp_path, capsys,
                                            first_run):
        db = tmp_path / "exp.db"
        assert main(["experiment", "table2", "--quick", "--json",
                     "--store", str(db)]) == 0
        assert json.loads(capsys.readouterr().out) == first_run("table2")[1]
        assert RunStore(db).counts()["done"] == 9  # 3 graphs x 3 algs
