"""Dataset analogs served from recipe-keyed graph-cache snapshots.

``load_dataset``/``quality_instance`` find a snapshot through a recipe
reference (a key over the dataset, its build callable, the graph code's
source and the NumPy version) and adopt the sorted layout stored in it
when its seal holds.  Every miss, stale key, unreadable file or failed
check ends in a fresh build of what failed, never in another graph.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.harness.datasets as ds
from repro.graph.csr import CSRGraph
from repro.graph.io import read_npz, save_npz
from repro.harness.cache import GraphCache
from repro.telemetry.provenance import graph_fingerprint
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import record_into
from test_layout_memo import fresh, reversed_rows
from test_sorted_rows import tie_heavy

#: The cheapest analog: a 500-vertex similarity graph.
NAME = "mouse_gene"


@pytest.fixture
def cache(tmp_path, monkeypatch) -> GraphCache:
    monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "graphs"))
    return GraphCache()


@pytest.fixture
def builds(monkeypatch) -> list[int]:
    """Counts calls of the mouse_gene generator: the recipe's code is
    unchanged, so its key is too."""
    calls: list[int] = []
    real = ds.similarity_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ds, "similarity_graph", counting)
    return calls


def serve() -> CSRGraph:
    return ds._serve(NAME, quality=True)


def assert_same_graph(g: CSRGraph, want: CSRGraph) -> None:
    assert g.name == want.name
    for a, b in ((g.indptr, want.indptr), (g.indices, want.indices),
                 (g.weights, want.weights)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert graph_fingerprint(g) == graph_fingerprint(want)


def assert_layout_fresh(g: CSRGraph) -> None:
    """``g``'s layout memo equals a fresh build, array for array and
    dtype for dtype."""
    want = CSRGraph(g.indptr.copy(), g.indices.copy(), g.weights.copy(),
                    g.name)._build_layout()
    got = g._sorted_layout()
    assert len(got) == len(want) == 5
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def snapshot_path(cache: GraphCache) -> Path:
    (ref,) = cache.entries("*.ref")
    doc = json.loads(ref.read_text())
    return cache.path_for(doc["graph"], doc["fingerprint"])


def outcomes(reg: MetricsRegistry) -> dict[str, float]:
    snap = reg.snapshot()
    return {o: snap.total("repro_graph_cache_total", outcome=o)
            for o in ("hit", "miss", "corrupt", "layout_rebuilt")}


# ------------------------------------------------------------------ #
# the recipe path
# ------------------------------------------------------------------ #


class TestRecipe:
    def test_cold_then_warm_serves_the_same_graph(self, cache, builds):
        cold = serve()
        assert builds == [1]
        assert cold._orders is not None  # sorted before the snapshot
        warm = serve()
        assert builds == [1]  # no generation
        assert warm is not cold
        assert_same_graph(warm, cold)
        assert warm._orders is not None  # adopted, not sorted
        assert_layout_fresh(warm)
        assert len(cache.entries()) == len(cache.entries("*.ref")) == 1

    def test_decisions_are_counted(self, cache, builds):
        reg = MetricsRegistry()
        with record_into(reg):
            serve()
            assert outcomes(reg)["miss"] == 1
            serve()
            assert outcomes(reg)["hit"] == 1
            path = snapshot_path(cache)
            path.write_bytes(path.read_bytes()[:200])
            serve()
            assert outcomes(reg) == {"hit": 1, "miss": 1, "corrupt": 1,
                                     "layout_rebuilt": 0}
            serve()
        assert outcomes(reg)["hit"] == 2
        assert builds == [1, 1]

    def test_truncated_csr_is_rebuilt(self, cache, builds):
        want = serve()
        path = snapshot_path(cache)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        g = serve()
        assert builds == [1, 1]
        assert_same_graph(g, want)
        assert_layout_fresh(g)
        serve()
        assert builds == [1, 1]  # the rebuilt snapshot replaced it

    def test_edited_layout_is_rebuilt(self, cache, builds):
        want = serve()
        path = snapshot_path(cache)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        rows = arrays["sorted_row_order"]
        v = int(np.argmax(np.diff(want.indptr)))  # a row of >= 2 slots
        lo = int(want.indptr[v])
        rows[[lo, lo + 1]] = rows[[lo + 1, lo]]
        np.savez(path, **arrays)  # seal left as it was
        reg = MetricsRegistry()
        with record_into(reg):
            g = serve()
            assert outcomes(reg)["layout_rebuilt"] == 1
            assert builds == [1]  # the CSR was sound
            assert_same_graph(g, want)
            assert_layout_fresh(g)
            serve()
            assert outcomes(reg)["hit"] == 1  # rewritten with the layout
        _, layout = read_npz(path)
        assert np.array_equal(layout[0], want.sorted_row_order())

    def test_garbled_reference_is_rebuilt(self, cache, builds):
        serve()
        (ref,) = cache.entries("*.ref")
        ref.write_text("{not json")
        reg = MetricsRegistry()
        with record_into(reg):
            serve()
        assert outcomes(reg)["corrupt"] == 1
        assert builds == [1, 1]
        serve()
        assert builds == [1, 1]

    def test_reference_names_a_fingerprint_not_a_path(self, cache, builds,
                                                      tmp_path):
        serve()
        (ref,) = cache.entries("*.ref")
        victim = tmp_path / "victim.npz"
        victim.write_bytes(b"not a cache entry")
        ref.write_text(json.dumps(
            {"graph": "x", "fingerprint": "sha256:/../../victim"}))
        reg = MetricsRegistry()
        with record_into(reg):
            serve()
        assert outcomes(reg)["corrupt"] == 1
        assert victim.read_bytes() == b"not a cache entry"
        assert builds == [1, 1]

    def test_evicted_snapshot_is_a_miss(self, cache, builds):
        serve()
        snapshot_path(cache).unlink()
        serve()
        assert builds == [1, 1]

    def test_changed_generator_parameter_misses(self, cache, builds,
                                                monkeypatch):
        old = serve()
        spec = ds.DATASETS[NAME]
        monkeypatch.setitem(ds.DATASETS, NAME, replace(
            spec, build_quality=lambda: ds.similarity_graph(
                500, avg_degree=20.0, seed=114, name="mouse_gene-q")))
        new = serve()
        assert builds == [1, 1]
        assert graph_fingerprint(new) != graph_fingerprint(old)
        assert_same_graph(new, ds.DATASETS[NAME].build_quality())
        assert len(cache.entries("*.ref")) == 2
        monkeypatch.setitem(ds.DATASETS, NAME, spec)
        assert_same_graph(serve(), old)  # the old recipe still hits
        assert len(builds) == 3

    def test_numpy_version_is_in_the_key(self, cache, builds, monkeypatch):
        serve()
        ds._source_digest.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(ds.np, "__version__", "0.0.0-other")
                serve()
                assert builds == [1, 1]
                assert len(cache.entries("*.ref")) == 2
        finally:
            ds._source_digest.cache_clear()
        serve()
        assert builds == [1, 1]

    def test_key_covers_recipe_and_sources(self):
        spec = ds.DATASETS[NAME]
        full = ds._recipe_key(NAME, False, spec.build)
        assert full != ds._recipe_key(NAME, True, spec.build_quality)
        assert full == ds._recipe_key(NAME, False, spec.build)
        other = ds.DATASETS["kmer_V2a"]
        assert ds._recipe_key(NAME, False, other.build) != full

    def test_off_keeps_the_build_path(self, tmp_path, monkeypatch, builds):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", "off")
        a, b = serve(), serve()
        assert builds == [1, 1]
        assert a._orders is None  # nothing sorted ahead of use
        assert_same_graph(a, b)

    def test_served_fingerprint_matches_generation(self, cache):
        serve()
        warm = serve()
        assert warm._fingerprint is not None  # seeded by the verify
        assert graph_fingerprint(warm) == \
            graph_fingerprint(ds.DATASETS[NAME].build_quality())


# ------------------------------------------------------------------ #
# snapshots and layouts
# ------------------------------------------------------------------ #


class TestSnapshotLayout:
    @pytest.mark.parametrize("shape", ["ascending", "reversed", "ties"])
    def test_adopted_layout_equals_fresh_build(self, medium_graph,
                                               tmp_path, shape):
        g = fresh(medium_graph)
        if shape == "reversed":  # the eid-lexsort fallback
            g = reversed_rows(g)
            assert not g._rows_ascending()
        elif shape == "ties":
            g = fresh(tie_heavy(g))
        g.sorted_row_order()
        cache = GraphCache(tmp_path)
        path, fp = cache.store(g)
        graph, adopted = cache._load(path, fp)
        assert adopted is True and graph._orders is not None
        assert_layout_fresh(graph)

    def test_parent_snapshot_loads_and_sorts_lazily(self, medium_graph,
                                                    tmp_path):
        """A snapshot without a layout (deflated CSR only) still loads;
        its layout is built on first use."""
        g = fresh(medium_graph)
        cache = GraphCache(tmp_path)
        path = cache.path_for(g.name, graph_fingerprint(g))
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, indptr=g.indptr, indices=g.indices,
                            weights=g.weights, name=np.array(g.name))
        graph, adopted = cache._load(path, graph_fingerprint(g))
        assert adopted is False and graph._orders is None
        assert_same_graph(graph, g)
        assert_layout_fresh(graph)

    def test_parent_snapshot_through_a_reference(self, cache, builds):
        """A reference to a snapshot without a layout sorts it once and
        rewrites the snapshot with it; later loads adopt it."""
        g = ds.DATASETS[NAME].build_quality()
        path = cache.path_for(g.name, graph_fingerprint(g))
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, indptr=g.indptr, indices=g.indices,
                            weights=g.weights, name=np.array(g.name))
        serve()  # no reference yet: a miss, pointed at that snapshot
        assert builds == [1, 1]
        reg = MetricsRegistry()
        with record_into(reg):
            warm = serve()
            assert outcomes(reg)["layout_rebuilt"] == 1
            assert warm._orders is not None
            assert_layout_fresh(warm)
            assert read_npz(path)[1] is not None
            again = serve()
            assert outcomes(reg)["hit"] == 1
        assert len(builds) == 2
        assert again._orders is not None  # adopted from the rewrite
        assert_layout_fresh(again)

    def test_seal_refuses_mismatches(self, medium_graph):
        g = fresh(medium_graph)
        rows, edges = (a.copy() for a in g._build_layout()[:2])
        fp = graph_fingerprint(g)
        from repro.graph.csr import layout_seal

        seal = layout_seal(rows, edges, fp)
        h = fresh(medium_graph)
        assert not h.adopt_layout(rows, edges, seal, "sha256:" + "0" * 32)
        assert not h.adopt_layout(rows[:-1], edges, seal, fp)
        assert not h.adopt_layout(rows.astype(np.int64), edges, seal, fp)
        assert h._orders is None
        assert h.adopt_layout(rows, edges, seal, fp)
        assert_layout_fresh(h)

    def test_no_fingerprint_no_layout(self, medium_graph, tmp_path):
        g = fresh(medium_graph)
        g.sorted_row_order()
        cache = GraphCache(tmp_path)
        path, _ = cache.store(g)
        assert cache.load(path)._orders is None
        assert read_npz(path)[0]._orders is None

    def test_pickle_still_drops_an_adopted_layout(self, medium_graph,
                                                  tmp_path):
        import pickle

        g = fresh(medium_graph)
        g.sorted_row_order()
        cache = GraphCache(tmp_path)
        loaded = cache.load(*cache.store(g))
        assert loaded._orders is not None
        assert pickle.loads(pickle.dumps(loaded))._orders is None

    def test_snapshot_without_layout_when_unsorted(self, medium_graph,
                                                   tmp_path):
        g = fresh(medium_graph)
        save_npz(g, tmp_path / "g.npz")
        assert read_npz(tmp_path / "g.npz")[1] is None


# ------------------------------------------------------------------ #
# concurrent writers and in-flight files
# ------------------------------------------------------------------ #


class TestConcurrentWriters:
    def test_concurrent_writers_leave_one_verifying_entry(
            self, medium_graph, tmp_path, monkeypatch):
        """More writers than cores snapshot one graph at once."""
        import repro.graph.io as gio

        g = fresh(medium_graph)
        g.sorted_row_order()
        writers = 4
        all_writing = threading.Barrier(writers, timeout=30)
        real = gio.save_npz

        def slow_save(graph, fh):
            real(graph, fh)
            all_writing.wait()  # none renames before all wrote

        monkeypatch.setattr(gio, "save_npz", slow_save)
        cache = GraphCache(tmp_path)
        errors: list[BaseException] = []

        def write():
            try:
                cache.store(g)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == \
            [cache.entries()[0].name]
        fp = graph_fingerprint(g)
        graph, adopted = GraphCache(tmp_path)._load(cache.entries()[0], fp)
        assert adopted is True
        assert_same_graph(graph, g)

    def test_in_flight_files_are_not_entries(self, medium_graph, tmp_path):
        cache = GraphCache(tmp_path, max_entries=0)
        path, _ = cache.store(fresh(medium_graph))
        assert not path.exists()  # max_entries=0 evicts it at once
        flight = tmp_path / f".{path.name}.0123abcd.tmp"
        flight.write_bytes(b"half a snapshot")
        ref_flight = tmp_path / ".x-0.ref.0123abcd.tmp"
        ref_flight.write_bytes(b"{")
        assert cache.entries() == cache.entries("*.ref") == []
        cache.evict()
        cache.clear()
        assert flight.exists() and ref_flight.exists()
