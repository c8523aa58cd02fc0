"""Tests for the repro.engine registry / context / record layer."""

import json

import numpy as np
import pytest

from repro.engine import (
    AlgorithmSpec,
    ConfigurationDivergenceError,
    RunContext,
    RunRecord,
    TraceSink,
    UnknownAlgorithmError,
    algorithm_names,
    algorithm_specs,
    execute,
    get_spec,
)
from repro.cli import main
from repro.gpusim.spec import CPU_EPYC_7742_2S, DGX_2, DGX_A100
from repro.harness.datasets import quality_instance, scaled_platform
from repro.harness.runners import best_ld_gpu
from repro.harness.sweep import TABLE1_BATCH_COUNTS, TABLE1_DEVICE_COUNTS

ALL_NAMES = algorithm_names()


@pytest.fixture(scope="module")
def small_graph():
    """~700-edge RMAT graph: small enough for the O(n³) solvers."""
    from repro.graph.generators import rmat_graph

    return rmat_graph(7, 6, seed=3, name="engine-small")


class TestRegistry:
    def test_every_legacy_algorithm_registered(self):
        assert set(ALL_NAMES) == {
            "ld_seq", "ld_gpu", "sr_omp", "sr_gpu", "suitor_seq",
            "greedy", "blossom", "cugraph",
            "coreset_greedy", "coreset_ld", "coreset_shard", "dynamic_ld",
        }

    def test_algorithms_view_tracks_registry(self, monkeypatch):
        from repro.engine import spec as spec_module
        from repro.matching.ld_gpu import ld_gpu

        assert [s.name for s in algorithm_specs()] == ALL_NAMES
        assert get_spec("ld_gpu").fn is ld_gpu
        monkeypatch.setitem(spec_module._REGISTRY, "zz_probe",
                            AlgorithmSpec("zz_probe", fn=ld_gpu))
        assert algorithm_names() == sorted(ALL_NAMES + ["zz_probe"])
        assert get_spec("zz_probe").fn is ld_gpu

    def test_unknown_name_is_keyerror(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_spec("bogus")
        with pytest.raises(UnknownAlgorithmError):
            get_spec("bogus")

    def test_capability_tags(self):
        assert "simulator_backed" in get_spec("ld_gpu").capability_tags
        assert get_spec("blossom").capability_tags \
            == ("exact", "parallel-safe")
        assert "approx_ratio=1/2" in get_spec("ld_gpu").capability_tags
        assert "parallel-safe" in get_spec("ld_gpu").capability_tags

    def test_specs_sorted(self):
        assert [s.name for s in algorithm_specs()] == ALL_NAMES


class TestBind:
    def test_ld_gpu_bind(self):
        ctx = RunContext(platform=DGX_2, num_devices=4, num_batches=3)
        kwargs = get_spec("ld_gpu").bind(None, ctx)
        assert kwargs == {"platform": DGX_2, "num_devices": 4,
                          "num_batches": 3}

    def test_sr_gpu_binds_device_of_platform(self):
        kwargs = get_spec("sr_gpu").bind(None, RunContext(platform=DGX_2))
        assert kwargs == {"spec": DGX_2.device}

    def test_sr_omp_binds_cpu(self):
        kwargs = get_spec("sr_omp").bind(None, RunContext())
        assert kwargs == {"cpu": CPU_EPYC_7742_2S}

    def test_seed_forwarded_only_when_set(self):
        spec = get_spec("coreset_greedy")
        assert spec.bind(None, RunContext()) == {}
        assert spec.bind(None, RunContext(seed=11)) == {"seed": 11}

    def test_parameterless_algorithms_bind_empty(self):
        ctx = RunContext(num_devices=8, seed=1)
        for name in ("greedy", "ld_seq", "blossom", "suitor_seq"):
            assert get_spec(name).bind(None, ctx) == {}

    def test_default_context_resolution(self):
        ctx = RunContext()
        assert ctx.resolved_platform() is DGX_A100
        assert ctx.resolved_cpu() is CPU_EPYC_7742_2S

    def test_for_dataset_scales(self):
        ctx = RunContext.for_dataset("mouse_gene", num_devices=2)
        assert ctx.platform == scaled_platform("mouse_gene")
        assert ctx.dataset == "mouse_gene"
        assert ctx.num_devices == 2

    def test_with_config(self):
        ctx = RunContext(num_devices=1).with_config(num_devices=4)
        assert ctx.num_devices == 4


class TestExecute:
    def test_returns_record_with_result(self, medium_graph):
        rec = execute("greedy", medium_graph)
        assert rec.algorithm == "greedy"
        assert rec.weight == pytest.approx(rec.result.weight)
        assert rec.matched_edges == rec.result.num_matched_edges
        assert rec.wall_time_s > 0
        assert rec.platform is None and rec.cpu is None

    def test_simulator_fields_recorded(self, medium_graph):
        ctx = RunContext(num_devices=2)
        rec = execute("ld_gpu", medium_graph, ctx)
        assert rec.platform == "DGX-A100"
        assert rec.num_devices == 2
        assert rec.num_batches >= 1  # auto-fit resolved
        assert rec.sim_time == pytest.approx(rec.result.sim_time)
        assert set(rec.timeline_totals) == set(rec.result.timeline.totals)

    def test_overrides_forwarded(self, medium_graph):
        rec = execute("ld_gpu", medium_graph, RunContext(),
                      max_iterations=2, collect_stats=False)
        assert rec.iterations <= 2

    def test_seed_recorded(self, medium_graph):
        rec = execute("coreset_greedy", medium_graph, RunContext(seed=5))
        assert rec.seed == 5

    # blossom is O(n³); dynamic_ld matches the *mutated* graph, so its
    # mate array is not a matching of the input (covered by
    # test_streaming.py::TestDynamicLdScenario).
    @pytest.mark.parametrize("name", [n for n in ALL_NAMES
                                      if n not in ("blossom",
                                                   "dynamic_ld")])
    def test_every_algorithm_executes_via_bind(self, small_graph, name):
        from repro.matching.validate import is_valid_matching

        rec = execute(name, small_graph, RunContext(num_devices=2))
        assert is_valid_matching(small_graph, rec.result.mate), name
        assert rec.algorithm == name


class TestRegressionVsLegacyDispatch:
    """Engine-bound kwargs must reproduce the pre-refactor hard-coded
    dispatch bit-for-bit (pinned via mate arrays and weights)."""

    def test_ld_gpu_matches_legacy_kwargs(self):
        from repro.matching.ld_gpu import ld_gpu

        g = quality_instance("GAP-kron")
        ctx = RunContext.for_dataset("GAP-kron", graph=g, num_devices=2)
        new = execute("ld_gpu", g, ctx)
        old = ld_gpu(g, scaled_platform("GAP-kron", DGX_A100, g),
                     num_devices=2, num_batches=None)
        assert np.array_equal(new.result.mate, old.mate)
        assert new.weight == pytest.approx(old.weight)
        assert new.sim_time == pytest.approx(old.sim_time)

    def test_sr_baselines_match_legacy_kwargs(self):
        from repro.harness.datasets import scaled_cpu
        from repro.matching.suitor import suitor_gpu_sim, suitor_omp_sim

        g = quality_instance("GAP-kron")
        ctx = RunContext.for_dataset("GAP-kron", graph=g)
        new_omp = execute("sr_omp", g, ctx)
        old_omp = suitor_omp_sim(g, cpu=scaled_cpu("GAP-kron", graph=g))
        assert np.array_equal(new_omp.result.mate, old_omp.mate)
        assert new_omp.sim_time == pytest.approx(old_omp.sim_time)
        # sr_gpu on the unscaled platform (the quality-scaled device is
        # too small by construction — that OOM is its own paper result).
        new_gpu = execute("sr_gpu", g, RunContext(platform=DGX_A100))
        old_gpu = suitor_gpu_sim(g, spec=DGX_A100.device)
        assert np.array_equal(new_gpu.result.mate, old_gpu.mate)
        assert new_gpu.sim_time == pytest.approx(old_gpu.sim_time)

    def test_cugraph_matches_legacy_kwargs(self):
        from repro.matching.cugraph_sim import cugraph_mg_sim

        g = quality_instance("GAP-kron")
        new = execute("cugraph", g, RunContext(num_devices=2))
        old = cugraph_mg_sim(g, DGX_A100, num_devices=2)
        assert np.array_equal(new.result.mate, old.mate)
        assert new.weight == pytest.approx(old.weight)


class TestRunRecordSerialisation:
    def _record(self, medium_graph) -> RunRecord:
        return execute("ld_gpu", medium_graph, RunContext(num_devices=2))

    def test_round_trip_dict(self, medium_graph):
        rec = self._record(medium_graph)
        again = RunRecord.from_dict(rec.to_dict())
        assert again == rec  # `result` is excluded from equality
        assert again.result is None

    def test_round_trip_json(self, medium_graph):
        rec = self._record(medium_graph)
        again = RunRecord.from_json(rec.to_json())
        assert again == rec

    def test_json_values_plain(self, medium_graph):
        doc = json.loads(self._record(medium_graph).to_json())
        assert doc["schema"] == 4
        assert isinstance(doc["weight"], float)
        assert isinstance(doc["timeline_totals"], dict)
        assert doc["capability_tags"] == ["simulator_backed",
                                          "approx_ratio=1/2",
                                          "parallel-safe"]
        assert doc["status"] == "ok"
        assert doc["error"] is None

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_dict({"schema": 999, "algorithm": "x"})

    def test_non_simulator_record_nulls(self, medium_graph):
        doc = execute("greedy", medium_graph).to_dict()
        assert doc["sim_time"] is None
        assert doc["timeline_totals"] is None
        assert doc["platform"] is None


class TestSinks:
    def test_trace_sink_captures_and_saves(self, tmp_path, medium_graph):
        path = tmp_path / "run.json"
        sink = TraceSink(path=str(path))
        execute("greedy", medium_graph,
                RunContext(sinks=(sink,)))  # no timeline: skipped
        execute("ld_gpu", medium_graph, RunContext(sinks=(sink,)))
        assert len(sink.traces) == 1
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_trace_from_result_rejects_no_timeline(self, medium_graph):
        from repro.gpusim.trace import Trace

        rec = execute("greedy", medium_graph)
        with pytest.raises(ValueError, match="no timeline"):
            Trace.from_result(rec)


class TestConfigurationDivergence:
    def test_best_ld_gpu_raises_on_divergence(self, medium_graph,
                                              monkeypatch):
        import sys

        # `repro.matching.ld_gpu` as a package attribute is shadowed by
        # the function of the same name; patch the real module.
        ld_gpu_mod = sys.modules["repro.matching.ld_gpu"]
        real = ld_gpu_mod.ld_gpu
        calls = {"n": 0}

        def broken(graph, platform, num_devices, num_batches, **kw):
            calls["n"] += 1
            r = real(graph, platform, num_devices=num_devices,
                     num_batches=num_batches, **kw)
            if calls["n"] > 1:  # second configuration diverges
                r.mate = np.roll(r.mate, 1)
            return r

        monkeypatch.setattr(ld_gpu_mod, "ld_gpu", broken)
        with pytest.raises(ConfigurationDivergenceError,
                           match="depends on configuration"):
            best_ld_gpu(medium_graph, DGX_A100, device_counts=(1, 2),
                        batch_counts=(None,))

    def test_survives_python_O(self, medium_graph):
        # The invariant must be an exception, not an assert: it has to
        # fire even with assertions compiled out.
        import subprocess
        import sys

        code = (
            "from repro.engine.errors import ConfigurationDivergenceError;"
            "assert not __debug__;"
            "e = ConfigurationDivergenceError('ld_gpu', 'a', 'b');"
            "print(isinstance(e, RuntimeError))"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src"}, cwd=".",
        )
        assert out.stdout.strip() == "True", out.stderr


class TestSweepGridConstants:
    def test_batch_grid_below_fifteen(self):
        assert all(b is None or b < 15 for b in TABLE1_BATCH_COUNTS)
        assert None in TABLE1_BATCH_COUNTS  # auto-fit always swept

    def test_device_grid_matches_paper(self):
        assert TABLE1_DEVICE_COUNTS == (1, 2, 4, 6, 8)

    def test_best_ld_gpu_defaults_are_the_constants(self):
        import inspect

        sig = inspect.signature(best_ld_gpu)
        assert sig.parameters["device_counts"].default \
            == TABLE1_DEVICE_COUNTS
        assert sig.parameters["batch_counts"].default \
            == TABLE1_BATCH_COUNTS


class TestCliEveryAlgorithm:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_run_json_on_tiny_dataset(self, capsys, name):
        # --quality: the tiny blossom-tractable instance, so even the
        # exact solver and the augmentation searches stay fast.
        rc = main(["run", "-a", name, "-d", "mouse_gene", "--quality",
                   "--seed", "0", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == name
        assert doc["graph"] == "mouse_gene-q"
        assert doc["dataset"] == "mouse_gene"
        assert doc["weight"] > 0
        assert doc["matched_edges"] > 0

    def test_run_devices_batches_flow_through(self, capsys):
        rc = main(["run", "-a", "ld_gpu", "-d", "mouse_gene", "-n", "2",
                   "-b", "2", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_devices"] == 2
        assert doc["num_batches"] == 2

    def test_list_algorithms_prints_tags(self, capsys):
        assert main(["list", "algorithms"]) == 0
        out = capsys.readouterr().out
        assert "capabilities" in out
        assert "simulator_backed" in out
        assert "exact" in out

    def test_trace_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = main(["run", "-a", "ld_gpu", "-d", "mouse_gene",
                   "--trace", str(path)])
        assert rc == 0
        assert "trace written to" in capsys.readouterr().out
        assert json.loads(path.read_text())["traceEvents"]
