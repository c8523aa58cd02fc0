"""Tests for repro.telemetry: registry, spans, exporters, provenance,
the engine MetricsSink, and the satellite regressions around Timeline
merging and the profiler report's stats-array indexing."""

import json
import warnings

import numpy as np
import pytest

from repro.engine import MetricsSink, RunContext, TraceSink, execute
from repro.gpusim.report import iteration_rows, profile_report
from repro.gpusim.timeline import COMPONENTS, Timeline
from repro.gpusim.trace import Trace
from repro.matching.ld_gpu import ld_gpu
from repro.telemetry import (
    MetricsRegistry,
    SpanEmitter,
    active_registry,
    aggregate_snapshots,
    build_manifest,
    graph_fingerprint,
    record_into,
    to_json_document,
    to_prometheus,
    validate_prometheus_text,
    write_metrics,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "x", a="1").inc()
        reg.counter("repro_x_total", a="1").inc(2.5)
        assert reg.snapshot().total("repro_x_total") == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("repro_x_total").inc(-1)

    def test_label_sets_are_separate_children(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", a="1").inc()
        reg.counter("repro_x_total", a="2").inc(5)
        snap = reg.snapshot()
        assert snap.total("repro_x_total", a="1") == 1
        assert snap.total("repro_x_total", a="2") == 5
        assert snap.total("repro_x_total") == 6

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g").set(0.25)
        reg.gauge("repro_g").set(0.75)
        assert reg.snapshot().total("repro_g") == 0.75

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        (sample,) = reg.snapshot().samples("repro_h")
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(55.5)
        assert sample["buckets"] == [(1.0, 1), (10.0, 2)]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_h", buckets=(2.0, 1.0))

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x")

    def test_bucket_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("repro_h", buckets=(1.0,))
        with pytest.raises(ValueError, match="different"):
            reg.histogram("repro_h", buckets=(2.0,))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("repro_x", **{"le": "nope"})

    def test_snapshot_is_frozen_copy(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total")
        c.inc()
        snap = reg.snapshot()
        c.inc(41)
        assert snap.total("repro_x_total") == 1
        assert reg.snapshot().total("repro_x_total") == 42


class TestSnapshotMerge:
    def _snap(self, n):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", a="x").inc(n)
        reg.gauge("repro_g").set(n)
        reg.histogram("repro_h", buckets=(1.0, 10.0)).observe(n)
        return reg.snapshot()

    def test_counters_add_gauges_last_win(self):
        merged = self._snap(1).merged_with(self._snap(5))
        assert merged.total("repro_c_total") == 6
        assert merged.total("repro_g") == 5

    def test_histograms_add_bucketwise(self):
        merged = self._snap(0.5).merged_with(self._snap(5))
        (s,) = merged.samples("repro_h")
        assert s["count"] == 2
        assert s["buckets"] == [(1.0, 1), (10.0, 2)]

    def test_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("repro_h", buckets=(2.0,)).observe(1)
        with pytest.raises(ValueError, match="bucket"):
            self._snap(1).merged_with(reg.snapshot())

    def test_aggregate_many(self):
        merged = aggregate_snapshots([self._snap(i) for i in range(4)])
        assert merged.total("repro_c_total") == 6

    def test_disjoint_families_union(self):
        a = MetricsRegistry()
        a.counter("repro_a_total").inc()
        b = MetricsRegistry()
        b.counter("repro_b_total").inc()
        merged = a.snapshot().merged_with(b.snapshot())
        assert "repro_a_total" in merged and "repro_b_total" in merged


class TestSpans:
    def test_no_registry_is_noop(self):
        assert active_registry() is None
        tel = SpanEmitter(Timeline(), algorithm="t")
        tel.emit("sync", 1.0)  # must not raise
        assert tel.timeline.totals["sync"] == 1.0

    def test_record_into_scopes_registry(self):
        reg = MetricsRegistry()
        with record_into(reg):
            assert active_registry() is reg
        assert active_registry() is None

    def test_emitter_feeds_timeline_and_registry_identically(self):
        reg = MetricsRegistry()
        t = Timeline()
        tel = SpanEmitter(t, algorithm="x", device="d")
        with record_into(reg):
            for s in (0.125, 0.25, 0.5):
                tel.emit("pointing", s)
        snap = reg.snapshot()
        assert snap.total("repro_component_seconds_total",
                          component="pointing") == t.totals["pointing"]
        assert snap.total("repro_spans_total") == 3

    def test_wall_span(self):
        from repro.telemetry import span

        reg = MetricsRegistry()
        with record_into(reg), span("unit_test"):
            pass
        (s,) = reg.snapshot().samples("repro_wall_span_seconds")
        assert s["labels"]["span"] == "unit_test"
        assert s["count"] == 1


class TestPrometheusExport:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "a counter", a="x").inc(2)
        reg.gauge("repro_g", "a gauge").set(0.5)
        reg.histogram("repro_h", "a histogram",
                      buckets=(1.0, 10.0)).observe(3.0)
        return reg.snapshot()

    def test_help_type_and_samples(self):
        text = to_prometheus(self._snapshot())
        assert "# HELP repro_c_total a counter" in text
        assert "# TYPE repro_c_total counter" in text
        assert 'repro_c_total{a="x"} 2' in text
        assert "# TYPE repro_h histogram" in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum 3" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total",
                    path='a"b\\c\nd').inc()
        text = to_prometheus(reg.snapshot())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert validate_prometheus_text(text) == 1

    def test_validator_accepts_own_output(self):
        assert validate_prometheus_text(
            to_prometheus(self._snapshot())) > 0

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_prometheus_text("this is not prometheus\n")

    def test_validator_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            validate_prometheus_text("")

    def test_validator_rejects_nonmonotone_histogram(self):
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="10"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError, match="monotone"):
            validate_prometheus_text(bad)

    def test_validator_rejects_missing_inf(self):
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_prometheus_text(bad)

    def test_write_metrics_suffix_dispatch(self, tmp_path):
        snap = self._snapshot()
        assert write_metrics(tmp_path / "m.prom", snap) == "prometheus"
        assert write_metrics(tmp_path / "m.json", snap) == "json"
        validate_prometheus_text((tmp_path / "m.prom").read_text())
        doc = json.loads((tmp_path / "m.json").read_text())
        assert "metrics" in doc


class TestProvenance:
    def test_manifest_fields(self, medium_graph):
        m = build_manifest(graph=medium_graph, seed=7, dataset="d",
                           sim_platform="DGX-A100", wall_time_s=0.1,
                           sim_time_s=0.2)
        assert m["schema"] == 1
        assert m["python"] and m["numpy"] and m["host_platform"]
        assert m["seed"] == 7
        assert m["dataset_fingerprint"].startswith("sha256:")

    def test_fingerprint_deterministic_and_name_independent(
            self, medium_graph):
        import copy

        g2 = copy.copy(medium_graph)
        g2.name = "renamed"
        assert graph_fingerprint(medium_graph) == graph_fingerprint(g2)

    def test_fingerprint_sensitive_to_weights(self, medium_graph):
        import copy

        g2 = copy.copy(medium_graph)
        g2.weights = medium_graph.weights.copy()
        g2.weights[len(g2.weights) // 2] += 1.0
        assert graph_fingerprint(medium_graph) != graph_fingerprint(g2)


@pytest.fixture
def hashes(monkeypatch):
    """Count the content hashes ``graph_fingerprint`` actually runs."""
    import repro.telemetry.provenance as prov

    calls = []
    real = prov._hash_graph

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(prov, "_hash_graph", counting)
    return calls


class TestFingerprintMemo:
    """The fingerprint is memoised on the graph like its derived arrays:
    once per graph object, rebuilt when a CSR array is reassigned, and
    never inherited by a pickled, cache-loaded or shm-attached copy."""

    @staticmethod
    def fresh(graph):
        from repro.telemetry.provenance import _hash_graph

        return _hash_graph(graph)

    def test_memo_equals_fresh_hash(self, medium_graph, hashes):
        import copy

        g = copy.copy(medium_graph)
        g._fingerprint = None
        fp = graph_fingerprint(g)
        assert graph_fingerprint(g) is fp
        assert len(hashes) == 1
        assert fp == self.fresh(g)

    @pytest.mark.parametrize("attr", ["indptr", "indices", "weights"])
    def test_reassigned_array_rebuilds(self, medium_graph, attr, hashes):
        import copy

        g = copy.copy(medium_graph)
        before = graph_fingerprint(g)
        setattr(g, attr, getattr(g, attr).copy())  # same values
        hashes.clear()
        assert graph_fingerprint(g) == before
        assert len(hashes) == 1
        g.weights = g.weights * 2.0
        assert graph_fingerprint(g) == self.fresh(g) != before
        assert graph_fingerprint(medium_graph) == before

    def test_unpickled_graph_recomputes(self, medium_graph, hashes):
        import pickle

        fp = graph_fingerprint(medium_graph)
        back = pickle.loads(pickle.dumps(medium_graph))
        assert back._fingerprint is None
        hashes.clear()
        assert graph_fingerprint(back) == fp
        assert hashes == [back]

    def test_cache_load_hashes_loaded_bytes(self, medium_graph, tmp_path,
                                            hashes):
        from repro.harness.cache import GraphCache

        cache = GraphCache(tmp_path)
        path, fp = cache.store(medium_graph)
        loaded = cache.load(path)  # no expected fingerprint: no check
        assert loaded._fingerprint is None
        hashes.clear()
        assert graph_fingerprint(loaded) == fp
        assert hashes == [loaded]

    def test_corrupt_cache_entry_still_rejected(self, medium_graph,
                                                tmp_path):
        from repro.graph.io import save_npz
        from repro.harness.cache import GraphCache

        cache = GraphCache(tmp_path)
        path, fp = cache.store(medium_graph)  # memoises medium's hash
        # Same filename (so the same expected fingerprint), other bytes.
        save_npz(medium_graph.reweighted(medium_graph.weights * 2.0), path)
        with pytest.raises(ValueError, match="corrupt"):
            cache.load(path, fp)
        assert cache.get_or_build(
            medium_graph.name, lambda: medium_graph, expect=fp) \
            is medium_graph  # the bad entry is rebuilt, not returned

    def test_shm_attach_hashes_its_own_bytes(self, medium_graph, hashes):
        import dataclasses

        from repro.harness.shm import SharedGraphRegistry

        owner, reader = SharedGraphRegistry(), SharedGraphRegistry()
        try:
            seg = owner.publish(medium_graph)
            # A descriptor's fingerprint is never seeded into the memo.
            bogus = dataclasses.replace(seg, fingerprint="sha256:" + "0" * 32)
            attached = reader.attach(bogus)
            assert attached._fingerprint is None
            hashes.clear()
            assert graph_fingerprint(attached) == seg.fingerprint
            assert hashes == [attached]
        finally:
            reader.unlink_all()
            owner.unlink_all()


class TestMetricsSink:
    def test_run_records_metrics_and_reconciles(self, medium_graph):
        sink = MetricsSink()
        ctx = RunContext(num_devices=4, sinks=(sink,))
        record = execute("ld_gpu", medium_graph, ctx)
        snap = sink.last_snapshot
        timeline = record.result.timeline
        for c in COMPONENTS:
            assert snap.total("repro_component_seconds_total",
                              component=c) == \
                pytest.approx(timeline.totals[c], abs=1e-12)
        assert snap.total("repro_communication_fraction") == \
            pytest.approx(timeline.communication_fraction())
        assert snap.total("repro_run_iterations") == record.iterations
        assert snap.total("repro_kernel_launches_total") > 0
        assert active_registry() is None

    def test_provenance_attached(self, medium_graph):
        record = execute("ld_gpu", medium_graph, RunContext())
        assert record.provenance is not None
        assert record.provenance["dataset_fingerprint"] == \
            graph_fingerprint(medium_graph)
        doc = json.loads(record.to_json())
        assert doc["schema"] == 4
        assert doc["provenance"]["numpy"] == np.__version__

    def test_per_run_registries_are_isolated(self, medium_graph):
        sink = MetricsSink()
        ctx = RunContext(num_devices=1, sinks=(sink,))
        execute("ld_gpu", medium_graph, ctx)
        execute("ld_gpu", medium_graph, ctx)
        assert len(sink.snapshots) == 2
        a, b = sink.snapshots
        assert a.total("repro_component_seconds_total") == \
            pytest.approx(b.total("repro_component_seconds_total"))
        merged = sink.merged()
        assert merged.total("repro_component_seconds_total") == \
            pytest.approx(2 * a.total("repro_component_seconds_total"))

    def test_registry_released_on_error(self, medium_graph):
        from repro.gpusim.memory import DeviceOOMError
        from repro.gpusim.spec import DGX_A100

        sink = MetricsSink()
        tiny = DGX_A100.with_device_memory(1024)
        ctx = RunContext(platform=tiny, num_devices=1, sinks=(sink,))
        with pytest.raises(DeviceOOMError):
            execute("ld_gpu", medium_graph, ctx)
        assert active_registry() is None
        assert sink.snapshots == []

    def test_edges_threshold_gauge(self, medium_graph):
        from repro.metrics.workstats import iterations_below_fraction

        sink = MetricsSink()
        ctx = RunContext(num_devices=2, sinks=(sink,))
        record = execute("ld_gpu", medium_graph, ctx)
        expected = iterations_below_fraction(
            record.result.stats["edges_scanned"],
            medium_graph.num_directed_edges, 0.2)
        assert sink.last_snapshot.total(
            "repro_iterations_below_edges_threshold") == \
            pytest.approx(expected)

    def test_json_document_reconciliation_block(self, medium_graph):
        sink = MetricsSink()
        ctx = RunContext(num_devices=4, sinks=(sink,))
        record = execute("ld_gpu", medium_graph, ctx)
        doc = to_json_document(sink.last_snapshot, record)
        rec = doc["reconciliation"]
        assert rec["max_abs_diff"] <= 1e-9
        assert rec["communication_fraction_metric"] == pytest.approx(
            rec["communication_fraction_timeline"])
        assert doc["provenance"] is record.provenance

    def test_multinode_cluster_gauges(self, medium_graph):
        from repro.matching.ld_multinode import ld_multinode

        reg = MetricsRegistry()
        with record_into(reg):
            ld_multinode(medium_graph, num_nodes=4, devices_per_node=4)
        snap = reg.snapshot()
        assert snap.total("repro_cluster_nodes") == 4
        assert snap.total("repro_cluster_devices_per_node") == 4
        assert sum(
            s["count"] for s in snap.samples("repro_allreduce_seconds")
        ) > 0


class TestTraceSinkOverwrite:
    def test_warns_once_and_keeps_surviving_path(self, tmp_path,
                                                 medium_graph):
        sink = TraceSink(path=str(tmp_path / "trace.json"))
        ctx = RunContext(num_devices=1, sinks=(sink,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                execute("ld_gpu", medium_graph, ctx)
        overwrites = [w for w in caught
                      if issubclass(w.category, RuntimeWarning)
                      and "placeholder" in str(w.message)]
        assert len(overwrites) == 1
        assert len(sink.traces) == 3
        assert sink.saved_paths == [str(tmp_path / "trace.json")]

    def test_placeholder_path_never_warns(self, tmp_path, medium_graph):
        sink = TraceSink(path=str(tmp_path / "trace_{n}.json"))
        ctx = RunContext(num_devices=1, sinks=(sink,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            execute("ld_gpu", medium_graph, ctx)
            execute("ld_gpu", medium_graph, ctx)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(sink.saved_paths) == 2


class TestTimelineMerge:
    """Satellite regression: merged_with must not drop iterations."""

    @staticmethod
    def _with_iterations(values):
        t = Timeline()
        for v in values:
            t.begin_iteration()
            t.add("pointing", v)
            t.end_iteration()
        return t

    def test_iterations_concatenated(self):
        m = self._with_iterations([1.0, 2.0]).merged_with(
            self._with_iterations([3.0]))
        assert len(m.iterations) == 3
        assert list(m.iteration_totals()) == [1.0, 2.0, 3.0]
        assert m.totals["pointing"] == 6.0
        assert m.total == pytest.approx(sum(m.iteration_totals()))

    def test_merge_with_open_iteration_raises(self):
        a = Timeline()
        a.begin_iteration()
        with pytest.raises(RuntimeError, match="open iteration"):
            a.merged_with(Timeline())
        with pytest.raises(RuntimeError, match="open iteration"):
            Timeline().merged_with(a)

    def test_records_are_copies(self):
        a = self._with_iterations([1.0])
        m = a.merged_with(Timeline())
        m.iterations[0]["pointing"] = 99.0
        assert a.iterations[0]["pointing"] == 1.0


class TestReportStatsGuards:
    """Satellite regression: profile_report/iteration_rows with stats
    arrays absent or shorter than the timeline's iteration count."""

    def test_rows_without_stats(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2, collect_stats=False)
        rows = iteration_rows(r)
        assert len(rows) == r.iterations
        assert all(row[-3] is None and row[-2] is None
                   and row[-1] is None for row in rows)
        assert "communication" in profile_report(r)

    def test_rows_with_short_stats(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=2)
        # A merged/extended timeline can outgrow the stats series.
        r.stats["edges_scanned"] = r.stats["edges_scanned"][:1]
        r.stats["occupancy"] = r.stats["occupancy"][:1]
        r.stats["new_matches"] = r.stats["new_matches"][:1]
        rows = iteration_rows(r)
        assert rows[0][-3] is not None
        assert all(row[-3] is None for row in rows[1:])
        assert profile_report(r)  # renders without IndexError

    def test_communication_fraction_vs_lane_totals(self, medium_graph):
        r = ld_gpu(medium_graph, num_devices=4)
        lanes = Trace.from_timeline(r.timeline).lane_totals()
        total = sum(lanes.values())
        assert lanes["communication"] / total == pytest.approx(
            r.timeline.communication_fraction())


class TestHostileLabelValues:
    """Satellite regression: label-value escaping must round-trip
    backslash/newline/quote, including the adversarial wire form
    ``\\n`` (literal backslash then 'n'), which a sequential
    str.replace unescape corrupts into a newline."""

    HOSTILE = [
        'plain',
        'has"quote',
        'has\nnewline',
        'has\\backslash',
        'backslash-then-n: \\n',       # the replace-order killer
        'all three: \\ " \n and \\n',
        'trailing backslash \\',
        '\\\\double\\\\',
    ]

    def test_roundtrip_through_exposition_text(self):
        from repro.telemetry.exporters import _parse_labels

        reg = MetricsRegistry()
        for i, v in enumerate(self.HOSTILE):
            reg.counter("repro_hostile_total", "hostile",
                        idx=str(i), path=v).inc()
        text = to_prometheus(reg.snapshot())
        assert validate_prometheus_text(text) == len(self.HOSTILE)
        seen = {}
        for line in text.splitlines():
            if line.startswith("repro_hostile_total{"):
                labels = _parse_labels(
                    line[len("repro_hostile_total"):-2], 1)
                seen[int(labels["idx"])] = labels["path"]
        assert [seen[i] for i in range(len(self.HOSTILE))] \
            == self.HOSTILE

    def test_unescape_is_single_pass(self):
        from repro.telemetry.exporters import (
            _escape_label_value,
            _unescape_label_value,
        )

        for v in self.HOSTILE:
            assert _unescape_label_value(_escape_label_value(v)) == v
        # the specific historical bug: escaped backslash + 'n'
        assert _unescape_label_value("\\\\n") == "\\n"
        assert _unescape_label_value("\\n") == "\n"
        # unknown escapes and a dangling backslash pass through
        assert _unescape_label_value("\\t") == "\\t"
        assert _unescape_label_value("end\\") == "end\\"


class TestSnapshotAccessors:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "c", component="sync").inc(2.0)
        reg.counter("repro_c_total", component="pointing").inc(3.0)
        reg.histogram("repro_h", "h", buckets=(1.0,)).observe(0.5)
        return reg.snapshot()

    def test_value_point_read(self):
        snap = self._snapshot()
        assert snap.value("repro_c_total", component="sync") == 2.0
        assert snap.value("repro_c_total", component="absent") is None
        assert snap.value("repro_nope_total") is None

    def test_value_rejects_ambiguous(self):
        snap = self._snapshot()
        with pytest.raises(ValueError, match="matches 2 samples"):
            snap.value("repro_c_total")

    def test_value_histogram_reads_sum(self):
        assert self._snapshot().value("repro_h") == 0.5

    def test_label_values(self):
        snap = self._snapshot()
        assert snap.label_values("repro_c_total", "component") \
            == ["pointing", "sync"]
        assert snap.label_values("repro_c_total", "missing") == []
