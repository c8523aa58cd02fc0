"""Tests for the batch-dynamic streaming subsystem.

The load-bearing claim is *exactness*: after any applied batch the
incremental engine's mate array must be byte-for-byte identical to a
from-scratch ``ld_seq`` on the mutated graph — checked here on crafted
cascades, seeded streams, and hypothesis-generated update sequences —
while its per-batch host work stays proportional to the affected
frontier rather than O(m).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.graph.overlay import OverlayGraph
from repro.matching.ld_seq import ld_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import (
    is_maximal_matching,
    is_valid_matching,
    matching_weight,
)
from repro.streaming import (
    EdgeStream,
    IncrementalLD,
    RecomputeLD,
    UpdateBatch,
    dynamic_ld,
    make_engine,
)


class TestUpdateBatch:
    def test_valid_ops(self):
        b = UpdateBatch(ops=(("insert", 0, 1, 0.5),
                             ("reweight", 0, 1, 0.7),
                             ("delete", 0, 1, None)))
        assert b.num_ops == 3
        assert b.touched_vertices().tolist() == [0, 1]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            UpdateBatch(ops=(("upsert", 0, 1, 0.5),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            UpdateBatch(ops=(("insert", 3, 3, 0.5),))

    def test_delete_carries_no_weight(self):
        with pytest.raises(ValueError, match="no weight"):
            UpdateBatch(ops=(("delete", 0, 1, 0.5),))

    def test_insert_needs_positive_weight(self):
        with pytest.raises(ValueError, match="positive weight"):
            UpdateBatch(ops=(("insert", 0, 1, None),))
        with pytest.raises(ValueError, match="positive weight"):
            UpdateBatch(ops=(("reweight", 0, 1, 0.0),))

    def test_doc_round_trip(self):
        b = UpdateBatch(ops=(("insert", 2, 7, 0.25),
                             ("delete", 1, 4, None)))
        again = UpdateBatch.from_doc(b.to_doc())
        assert again == b
        # deletes serialise without a weight slot
        assert b.to_doc()["ops"][1] == ["delete", 1, 4]

    def test_empty_batch(self):
        b = UpdateBatch(ops=())
        assert b.num_ops == 0
        assert b.touched_vertices().size == 0


class TestEdgeStream:
    def test_generate_deterministic(self, medium_graph):
        a = EdgeStream.generate(medium_graph, num_batches=4,
                                batch_size=10, seed=7)
        b = EdgeStream.generate(medium_graph, num_batches=4,
                                batch_size=10, seed=7)
        assert a == b
        c = EdgeStream.generate(medium_graph, num_batches=4,
                                batch_size=10, seed=8)
        assert a != c

    def test_ops_valid_by_construction(self, medium_graph):
        """Every generated op applies cleanly to a tracked edge set."""
        stream = EdgeStream.generate(medium_graph, num_batches=6,
                                     batch_size=20, seed=3)
        u, v, _ = medium_graph.edge_array()
        live = set(zip(u.tolist(), v.tolist()))
        for batch in stream:
            for kind, a, b, w in batch.ops:
                key = (a, b) if a < b else (b, a)
                if kind == "insert":
                    assert key not in live
                    live.add(key)
                elif kind == "delete":
                    assert key in live
                    live.remove(key)
                else:
                    assert key in live and w > 0

    def test_shape_and_counts(self, medium_graph):
        stream = EdgeStream.generate(medium_graph, num_batches=5,
                                     batch_size=8, seed=0)
        assert len(stream) == 5
        assert stream.num_ops == 40
        assert stream.num_vertices == medium_graph.num_vertices

    def test_save_load_round_trip(self, tmp_path, medium_graph):
        stream = EdgeStream.generate(medium_graph, num_batches=3,
                                     batch_size=12, seed=11)
        path = tmp_path / "events.jsonl"
        stream.save(path)
        again = EdgeStream.load(path)
        assert again == stream
        assert again.seed == 11

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"version": 99, "num_vertices": 4})
                        + "\n")
        with pytest.raises(ValueError, match="version"):
            EdgeStream.load(path)

    def test_generate_validates_shape(self, medium_graph):
        with pytest.raises(ValueError):
            EdgeStream.generate(medium_graph, num_batches=-1)
        with pytest.raises(ValueError):
            EdgeStream.generate(medium_graph, batch_size=0)
        with pytest.raises(ValueError):
            EdgeStream.generate(medium_graph, p_insert=0.9, p_delete=0.3)

    def test_generate_on_edgeless_graph(self):
        g = build_graph(6, [])
        stream = EdgeStream.generate(g, num_batches=2, batch_size=5,
                                     seed=0)
        # nothing to delete or reweight yet — first ops must be inserts
        assert stream.batches[0].ops[0][0] == "insert"


class TestOverlayGraph:
    def test_starts_as_base(self, medium_graph):
        ov = OverlayGraph(medium_graph)
        assert ov.num_edges == medium_graph.num_edges
        u, v, w = medium_graph.edge_array()
        ou, ovv, ow = ov.edges()
        order = np.lexsort((v, u))
        assert np.array_equal(ou, u[order])
        assert np.array_equal(ovv, v[order])
        assert np.allclose(ow, w[order])
        assert ov.has_edge(int(u[0]), int(v[0]))
        assert ov.edge_weight(int(u[0]), int(v[0])) == \
            pytest.approx(float(w[0]))

    def test_mutation_semantics(self):
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 2.0)])
        ov = OverlayGraph(g)
        ov.insert(2, 3, 0.5)
        assert ov.num_edges == 3 and ov.has_edge(3, 2)
        with pytest.raises(ValueError, match="use reweight"):
            ov.insert(0, 1, 9.0)
        ov.reweight(0, 1, 9.0)
        assert ov.edge_weight(1, 0) == 9.0
        ov.delete(1, 2)
        assert not ov.has_edge(1, 2)
        with pytest.raises(KeyError):
            ov.delete(1, 2)
        with pytest.raises(KeyError):
            ov.reweight(1, 2, 1.0)
        with pytest.raises(KeyError):
            ov.edge_weight(1, 2)
        # delete of an overlay edge, then re-insert
        ov.delete(2, 3)
        ov.insert(2, 3, 0.75)
        assert ov.edge_weight(2, 3) == 0.75

    def test_vertex_set_is_fixed(self):
        ov = OverlayGraph(build_graph(3, [(0, 1, 1.0)]))
        with pytest.raises(ValueError, match="fixed vertex set"):
            ov.insert(0, 5, 1.0)
        with pytest.raises(ValueError, match="self-loop"):
            ov.has_edge(1, 1)

    def test_weight_must_be_positive(self):
        ov = OverlayGraph(build_graph(3, [(0, 1, 1.0)]))
        with pytest.raises(ValueError):
            ov.insert(1, 2, 0.0)
        with pytest.raises(ValueError):
            ov.reweight(0, 1, -1.0)

    def test_row_arrays_track_mutations(self):
        g = build_graph(5, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
        ov = OverlayGraph(g)
        ov.delete(0, 2)
        ov.reweight(0, 1, 5.0)
        ov.insert(0, 4, 4.0)
        nbrs, ws = ov.row_arrays(0)
        assert dict(zip(nbrs.tolist(), ws.tolist())) == \
            {1: 5.0, 3: 3.0, 4: 4.0}
        # an untouched vertex still returns its base slice view
        nbrs1, ws1 = ov.row_arrays(3)
        assert nbrs1.tolist() == [0] and ws1.tolist() == [3.0]

    def test_to_csr_matches_edges(self, medium_graph):
        ov = OverlayGraph(medium_graph)
        u, v, _ = medium_graph.edge_array()
        ov.delete(int(u[0]), int(v[0]))
        ov.reweight(int(u[1]), int(v[1]), 0.123)
        a, b = 0, medium_graph.num_vertices - 1
        if not ov.has_edge(a, b):
            ov.insert(a, b, 0.456)
        snap = ov.to_csr()
        snap.validate()
        assert snap.num_vertices == medium_graph.num_vertices
        su, sv, sw = snap.edge_array()
        eu, ev, ew = ov.edges()
        assert np.array_equal(su, eu) and np.array_equal(sv, ev)
        assert np.allclose(sw, ew)
        assert snap.num_edges == ov.num_edges


def _check_exact(eng):
    """The repaired matching equals from-scratch ld_seq on the
    mutated graph, and is a valid maximal matching of it."""
    snap = eng.snapshot()
    oracle = ld_seq(snap, collect_stats=False)
    assert np.array_equal(eng.mate, oracle.mate)
    assert is_valid_matching(snap, eng.mate)
    assert is_maximal_matching(snap, eng.mate)
    return snap


class TestIncrementalLD:
    def test_dethroning_cascade(self):
        """Regression shape for the free-target commit bug: deleting
        (a,b) frees b, which must dethrone c from (c,d) — the repair
        cascades past the changed vertices and lands on {bc}."""
        g = build_graph(4, [(0, 1, 3.0), (1, 2, 2.5), (2, 3, 2.0)])
        eng = IncrementalLD(g)
        assert eng.mate.tolist() == [1, 0, 3, 2]
        res = eng.apply(UpdateBatch(ops=(("delete", 0, 1, None),)))
        assert eng.mate.tolist() == [UNMATCHED, 2, 1, UNMATCHED]
        # the dethroned vertex d is part of the affected set even
        # though no op touched it
        assert 3 in res.affected
        assert set(res.cursors_rebuilt) == {0, 1}
        _check_exact(eng)

    def test_empty_batch_is_noop(self, medium_graph):
        eng = IncrementalLD(medium_graph)
        before = eng.mate.copy()
        res = eng.apply(UpdateBatch(ops=()))
        assert np.array_equal(eng.mate, before)
        assert res.affected == () and res.host_entries_scanned == 0
        assert res.rounds == 0 and res.repairs == 0

    def test_insert_heavy_edge_rematches(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        eng = IncrementalLD(g)
        eng.apply(UpdateBatch(ops=(("insert", 1, 2, 5.0),)))
        assert eng.mate[1] == 2
        _check_exact(eng)

    def test_reweight_matched_edge_down(self):
        g = build_graph(3, [(0, 1, 3.0), (1, 2, 2.0)])
        eng = IncrementalLD(g)
        eng.apply(UpdateBatch(ops=(("reweight", 0, 1, 0.5),)))
        assert eng.mate[1] == 2
        _check_exact(eng)

    @pytest.mark.parametrize("engine_kind", ["incremental", "recompute"])
    def test_seeded_stream_bit_identity(self, medium_graph, engine_kind):
        eng = make_engine(engine_kind, medium_graph)
        stream = EdgeStream.generate(medium_graph, num_batches=6,
                                     batch_size=15, seed=4)
        for batch in stream:
            res = eng.apply(batch)
            snap = _check_exact(eng)
            assert res.matched_edges == eng.matched_edges
            assert res.weight == pytest.approx(
                matching_weight(snap, eng.mate))

    def test_cursors_and_host_work_bounds(self, medium_graph):
        eng = IncrementalLD(medium_graph)
        stream = EdgeStream.generate(medium_graph, num_batches=5,
                                     batch_size=10, seed=9)
        for batch in stream:
            res = eng.apply(batch)
            # cursor invalidation hits exactly the op endpoints, which
            # the affected set always contains
            assert set(res.cursors_rebuilt) == \
                set(batch.touched_vertices().tolist())
            assert set(res.cursors_rebuilt) <= set(res.affected)
            # host work is bounded by re-scanning the affected
            # vertices' rows once per round — never O(m) per batch
            snap = eng.snapshot()
            deg = np.diff(snap.indptr)
            bound = res.rounds * int(deg[list(res.affected)].sum())
            assert res.host_entries_scanned <= max(bound, 0)

    def test_incremental_scans_less_than_recompute(self, medium_graph):
        inc = IncrementalLD(medium_graph)
        rec = RecomputeLD(medium_graph)
        stream = EdgeStream.generate(medium_graph, num_batches=6,
                                     batch_size=10, seed=1)
        inc_host = sum(inc.apply(b).host_entries_scanned for b in stream)
        rec_host = sum(rec.apply(b).host_entries_scanned for b in stream)
        assert np.array_equal(inc.mate, rec.mate)
        assert inc_host < rec_host

    def test_make_engine_rejects_unknown(self, medium_graph):
        with pytest.raises(ValueError, match="unknown stream engine"):
            make_engine("magic", medium_graph)

    def test_engine_read_surface(self, medium_graph):
        eng = IncrementalLD(medium_graph)
        assert eng.num_vertices == medium_graph.num_vertices
        assert eng.graph.num_edges == medium_graph.num_edges
        assert eng.weight == pytest.approx(
            ld_seq(medium_graph, collect_stats=False).weight)


class TestStreamingProperties:
    """Satellite hypothesis coverage: arbitrary batched update
    sequences preserve exactness, validity and the cursor bound."""

    @given(random_graphs(max_vertices=14, max_edges=30),
           st.integers(min_value=0, max_value=1000))
    def test_generated_streams_stay_exact(self, g, seed):
        eng = IncrementalLD(g)
        stream = EdgeStream.generate(g, num_batches=3, batch_size=6,
                                     seed=seed)
        for batch in stream:
            res = eng.apply(batch)
            _check_exact(eng)
            assert set(res.cursors_rebuilt) <= set(res.affected)
            assert len(res.cursors_rebuilt) <= res.affected_vertices

    @given(random_graphs(max_vertices=10, max_edges=20,
                         tie_prone=True),
           st.integers(min_value=0, max_value=1000))
    def test_tie_prone_weights_stay_exact(self, g, seed):
        """Equal weights force the (w, eid) tie-break everywhere."""
        eng = IncrementalLD(g)
        stream = EdgeStream.generate(g, num_batches=2, batch_size=5,
                                     seed=seed)
        for batch in stream:
            eng.apply(batch)
            _check_exact(eng)

    @given(st.data())
    @settings(max_examples=20)
    def test_arbitrary_batches_stay_exact(self, data):
        """Hand-built op sequences (not the generator's distribution):
        any valid mix of insert/delete/reweight keeps the incremental
        engine on the LD fixed point."""
        n = data.draw(st.integers(min_value=3, max_value=10))
        g = build_graph(n, [(i, i + 1, 1.0 + 0.1 * i)
                            for i in range(n - 1)])
        eng = IncrementalLD(g)
        live = {(i, i + 1) for i in range(n - 1)}
        for _ in range(data.draw(st.integers(1, 4))):
            ops = []
            for _ in range(data.draw(st.integers(1, 5))):
                choices = ["insert"] + (["delete", "reweight"]
                                        if live else [])
                kind = data.draw(st.sampled_from(choices))
                if kind == "insert":
                    pool = [(a, b) for a in range(n)
                            for b in range(a + 1, n)
                            if (a, b) not in live]
                    if not pool:
                        continue
                    a, b = data.draw(st.sampled_from(pool))
                    w = data.draw(st.floats(0.01, 2.0))
                    ops.append(("insert", a, b, w))
                    live.add((a, b))
                elif kind == "delete":
                    a, b = data.draw(st.sampled_from(sorted(live)))
                    ops.append(("delete", a, b, None))
                    live.remove((a, b))
                else:
                    a, b = data.draw(st.sampled_from(sorted(live)))
                    w = data.draw(st.floats(0.01, 2.0))
                    ops.append(("reweight", a, b, w))
            if ops:
                eng.apply(UpdateBatch(ops=tuple(ops)))
                _check_exact(eng)


class TestDynamicLdScenario:
    def test_registered(self):
        from repro.engine import algorithm_names, get_spec

        assert "dynamic_ld" in algorithm_names()
        spec = get_spec("dynamic_ld")
        assert "streaming" in spec.tags
        assert "median_update_latency_s" in spec.record_stats

    def test_engines_agree(self, medium_graph):
        inc = dynamic_ld(medium_graph, num_batches=4, batch_size=10,
                         seed=2, stream_engine="incremental")
        rec = dynamic_ld(medium_graph, num_batches=4, batch_size=10,
                         seed=2, stream_engine="recompute")
        assert np.array_equal(inc.mate, rec.mate)
        assert inc.weight == pytest.approx(rec.weight)
        assert inc.algorithm == "dynamic_ld(incremental)"
        assert rec.algorithm == "dynamic_ld(recompute)"
        assert inc.stats["host_entries_scanned"] < \
            rec.stats["host_entries_scanned"]

    def test_stats_shape(self, medium_graph):
        res = dynamic_ld(medium_graph, num_batches=3, batch_size=8,
                         seed=0)
        s = res.stats
        assert s["stream_batches"] == 3
        assert s["stream_ops"] == 24
        assert len(s["affected_per_batch"]) == 3
        assert len(s["host_entries_per_batch"]) == 3
        assert s["affected_vertices"] == sum(s["affected_per_batch"])
        assert s["host_entries_scanned"] == \
            sum(s["host_entries_per_batch"])
        assert s["median_update_latency_s"] >= 0
        assert s["stream_recompute_entries_modeled"] > 0
        assert s["config"]["stream_engine"] == "incremental"

    def test_recorded_events_replayed(self, medium_graph):
        stream = EdgeStream.generate(medium_graph, num_batches=2,
                                     batch_size=6, seed=5)
        res = dynamic_ld(medium_graph, events=stream)
        assert res.stats["stream_batches"] == 2
        assert res.stats["config"]["seed"] == 5

    def test_rejects_bad_inputs(self, medium_graph):
        with pytest.raises(ValueError, match="unknown stream engine"):
            dynamic_ld(medium_graph, stream_engine="nope")
        other = EdgeStream.generate(build_graph(4, [(0, 1, 1.0)]),
                                    num_batches=1, batch_size=2)
        with pytest.raises(ValueError, match="vertices"):
            dynamic_ld(medium_graph, events=other)

    def test_execute_copies_stream_stats(self, medium_graph):
        from repro.engine import RunContext, execute

        record = execute("dynamic_ld", medium_graph,
                         RunContext(seed=3, dataset="t"),
                         num_batches=3, batch_size=8)
        assert record.ok
        for key in ("stream_engine", "stream_batches",
                    "host_entries_scanned", "affected_vertices",
                    "median_update_latency_s",
                    "stream_recompute_entries_modeled"):
            assert record.extra.get(key) is not None, key

    def test_counters_reconcile(self, medium_graph):
        from repro.telemetry import MetricsRegistry, record_into

        reg = MetricsRegistry()
        with record_into(reg):
            res = dynamic_ld(medium_graph, num_batches=3,
                             batch_size=8, seed=1)
        snap = reg.snapshot()
        assert snap.value("repro_stream_batches_total",
                          engine="incremental") == \
            res.stats["stream_batches"]
        assert snap.value("repro_stream_repairs_total",
                          engine="incremental") == \
            res.stats["stream_repairs"]
        assert snap.value("repro_stream_affected_vertices_total",
                          engine="incremental") == \
            res.stats["affected_vertices"]


class TestDynamicBenchSuite:
    def test_suite_registered_with_twins(self):
        from repro.harness.bench import SUITES

        names = [w.name for w in SUITES["dynamic"]]
        incs = [n for n in names if n.endswith("-incremental")]
        assert incs
        for n in incs:
            assert n[:-len("incremental")] + "recompute" in names
        for w in SUITES["dynamic"]:
            assert w.algorithm == "dynamic_ld"
            assert w.overrides["stream_engine"] in \
                ("incremental", "recompute")

    def test_compare_reports_gates_dynamic_metrics(self):
        def doc(affected, speedup):
            wl = {
                "name": "w-incremental", "algorithm": "dynamic_ld",
                "dataset": "d", "status": "ok",
                "median_sim_time_s": None,
                "median_wall_time_s": 0.1, "weight": 1.0,
                "iterations": 4, "host_entries_scanned": 100,
                "affected_vertices": affected,
                "median_update_latency_s": 0.001,
            }
            if speedup is not None:
                wl["speedup_vs_recompute"] = speedup
            return {"schema": 1, "suite": "dynamic", "repeats": 1,
                    "provenance": {}, "workloads": [wl]}

        from repro.harness.bench import compare_reports

        base = doc(100, 5.0)
        assert compare_reports(doc(100, 5.0), base) == []
        # faster and slightly-more-affected within tolerance both pass
        assert compare_reports(doc(104, 2.0), base) == []
        probs = compare_reports(doc(120, 5.0), base)
        assert probs and "affected_vertices" in probs[0]
        # the latency floor is machine-relative: < 1.0 always fails
        probs = compare_reports(doc(100, 0.9), base)
        assert probs and "slower than" in probs[0]
        probs = compare_reports(doc(100, None), base)
        assert probs and "missing" in probs[0]

    def test_baseline_committed_and_valid(self):
        from repro.harness.bench import validate_bench_report

        path = os.path.join(os.path.dirname(__file__), "..",
                            "benchmarks", "baseline_dynamic.json")
        doc = json.load(open(path))
        validate_bench_report(doc)
        assert doc["suite"] == "dynamic"
        incs = [w for w in doc["workloads"]
                if w["name"].endswith("-incremental")]
        assert incs
        for w in incs:
            assert w["speedup_vs_recompute"] >= 1.0


class TestStreamCLI:
    def test_stream_json(self, capsys):
        from repro.cli import main

        assert main(["stream", "-d", "mouse_gene", "--quality",
                     "--num-batches", "3", "--batch-size", "6",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified_vs_ld_seq"] is True
        assert doc["extra"]["stream_engine"] == "incremental"
        assert doc["extra"]["stream_batches"] == 3

    def test_stream_record_then_replay(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "events.jsonl"
        assert main(["stream", "-d", "mouse_gene", "--quality",
                     "--num-batches", "2", "--batch-size", "5",
                     "--seed", "6", "--record", str(log),
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["stream", "-d", "mouse_gene", "--quality",
                     "--engine", "recompute", "--events", str(log),
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["weight"] == pytest.approx(second["weight"])
        assert second["extra"]["stream_engine"] == "recompute"

    def test_stream_human_output(self, capsys):
        from repro.cli import main

        assert main(["stream", "-d", "mouse_gene", "--quality",
                     "--num-batches", "2", "--batch-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "modeled" in out

    def test_stats_reconciles_streaming(self, tmp_path, capsys):
        """Satellite: the ``stats`` subcommand reports incremental host
        work against the modeled from-scratch recompute floor."""
        from repro.cli import main

        record = tmp_path / "record.json"
        assert main(["stream", "-d", "mouse_gene", "--quality",
                     "--num-batches", "3", "--batch-size", "6",
                     "--json"]) == 0
        record.write_text(capsys.readouterr().out)
        assert main(["stats", str(record), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "pointing" not in doc
        s = doc["streaming"]
        assert s["engine"] == "incremental"
        assert s["batches"] == 3
        assert s["host_entries_scanned"] <= \
            s["modeled_recompute_entries"]
        assert 0 < s["host_fraction_of_recompute"] < 1
        # human mode prints the same reconciliation
        assert main(["stats", str(record)]) == 0
        human = capsys.readouterr().out
        assert "streaming engine" in human
        assert "recompute floor" in human
