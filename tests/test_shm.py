"""Shared-memory graph plane: buffer-backed CSR views, registry
lifecycle (publish / attach / refcount / unlink), parallel staging
identity against serial runs, crash hygiene and the ``.npz`` fallback.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import build_graph
from repro.engine.cells import Cell, run_cells
from repro.graph.csr import CSRGraph
from repro.harness.cache import GraphCache
from repro.harness.shm import (
    SEGMENT_PREFIX,
    SHM_ENV,
    SharedGraphRegistry,
    SharedGraphSegment,
    default_registry,
    list_orphan_segments,
    shm_enabled,
    unlink_segment,
)

HAVE_DEV_SHM = Path("/dev/shm").is_dir()


def _segment_names() -> set[str]:
    return {name for name, _ in list_orphan_segments()}


def _strip_wall(doc: dict) -> dict:
    doc.pop("wall_time_s", None)
    doc.pop("started_at", None)
    doc.pop("duration_s", None)
    if doc.get("provenance"):
        doc["provenance"].pop("wall_time_s", None)
    return doc


@pytest.fixture
def small_graph():
    return build_graph(6, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 3.0),
                           (3, 4, 4.0), (4, 5, 2.0)], "shm-fig1")


@pytest.fixture
def registry():
    reg = SharedGraphRegistry()
    yield reg
    reg.unlink_all()


# ------------------------------------------------------------------ #
# buffer-backed CSR construction
# ------------------------------------------------------------------ #


class TestCSRBuffers:
    def test_export_buffers_read_only_views(self, small_graph):
        indptr, indices, weights = small_graph.export_buffers()
        for view, base in ((indptr, small_graph.indptr),
                           (indices, small_graph.indices),
                           (weights, small_graph.weights)):
            assert np.shares_memory(view, base)
            assert not view.flags.writeable
            assert np.array_equal(view, base)
        # The graph's own arrays stay as they were.
        assert small_graph.indptr.dtype == np.int64

    def test_from_buffers_zero_copy(self, small_graph):
        g = small_graph
        rebuilt = CSRGraph.from_buffers(g.indptr, g.indices, g.weights,
                                        name="rebuilt")
        assert np.shares_memory(rebuilt.indptr, g.indptr)
        assert np.shares_memory(rebuilt.indices, g.indices)
        assert np.shares_memory(rebuilt.weights, g.weights)
        assert not rebuilt.indptr.flags.writeable
        assert not rebuilt.weights.flags.writeable
        assert rebuilt.num_vertices == g.num_vertices
        assert rebuilt.num_directed_edges == g.num_directed_edges

    def test_from_buffers_memoised_caches_work(self, small_graph):
        g = small_graph
        rebuilt = CSRGraph.from_buffers(g.indptr, g.indices, g.weights,
                                        name="rebuilt")
        assert np.array_equal(rebuilt.degrees, g.degrees)
        assert rebuilt.degrees is rebuilt.degrees  # memoised
        assert np.array_equal(rebuilt.canonical_edge_ids(),
                              g.canonical_edge_ids())

    def test_from_buffers_coerces_foreign_dtypes(self, small_graph):
        g = small_graph
        rebuilt = CSRGraph.from_buffers(
            g.indptr.astype(np.int32), g.indices, g.weights,
            name="coerced")
        assert rebuilt.indptr.dtype == np.int64
        assert np.array_equal(rebuilt.indptr, g.indptr)

    def test_from_buffers_leaves_caller_arrays_writeable(self):
        indptr = np.array([0, 2, 4], dtype=np.int64)
        indices = np.array([1, 1, 0, 0], dtype=np.int64)
        weights = np.array([1.0, 2.0, 1.0, 2.0])
        CSRGraph.from_buffers(indptr, indices, weights, name="w")
        assert indptr.flags.writeable  # the view went read-only, not us


# ------------------------------------------------------------------ #
# registry lifecycle
# ------------------------------------------------------------------ #


class TestRegistryLifecycle:
    def test_publish_attach_round_trip(self, registry, small_graph):
        seg = registry.publish(small_graph)
        assert seg.name.startswith(SEGMENT_PREFIX)
        assert seg.graph_name == small_graph.name
        assert seg.nbytes == (small_graph.num_vertices + 1
                              + 2 * small_graph.num_directed_edges) * 8
        g = registry.attach(seg)
        assert np.array_equal(g.indptr, small_graph.indptr)
        assert np.array_equal(g.indices, small_graph.indices)
        assert np.array_equal(g.weights, small_graph.weights)
        assert not g.weights.flags.writeable

    def test_publish_refcounts_duplicates(self, registry, small_graph):
        seg1 = registry.publish(small_graph)
        seg2 = registry.publish(small_graph)
        assert seg1 == seg2
        assert registry.publishes == 1  # bytes copied exactly once
        assert registry.refcount(seg1.fingerprint) == 2
        assert registry.release(seg1.fingerprint) is False
        assert registry.refcount(seg1.fingerprint) == 1
        assert registry.release(seg1.fingerprint) is True
        assert registry.refcount(seg1.fingerprint) == 0
        assert registry.unlinks == 1

    def test_attach_memoised_per_name(self, registry, small_graph):
        seg = registry.publish(small_graph)
        assert registry.attach(seg) is registry.attach(seg)
        assert registry.attaches == 1

    def test_foreign_registry_attach(self, registry, small_graph):
        """A second registry (standing in for a worker process) maps
        the segment cold and sees the same bytes."""
        seg = registry.publish(small_graph)
        attacher = SharedGraphRegistry()
        g = attacher.attach(seg)
        assert np.array_equal(g.weights, small_graph.weights)
        assert attacher.attaches == 1
        assert attacher.refcount(seg.fingerprint) == 0  # not the owner

    def test_attach_after_unlink_raises(self, registry, small_graph):
        seg = registry.publish(small_graph)
        assert registry.release(seg.fingerprint) is True
        with pytest.raises((FileNotFoundError, OSError)):
            SharedGraphRegistry().attach(seg)

    def test_release_unknown_fingerprint_is_noop(self, registry):
        assert registry.release("sha256:" + "0" * 32) is False

    def test_unlink_all_idempotent(self, registry, small_graph):
        registry.publish(small_graph)
        registry.publish(build_graph(3, [(0, 1, 1.0)], "shm-other"))
        assert registry.unlink_all() == 2
        assert registry.unlink_all() == 0
        assert registry.segments() == []

    def test_fingerprint_round_trips_through_segment(self, registry,
                                                     small_graph):
        from repro.telemetry.provenance import graph_fingerprint

        seg = registry.publish(small_graph)
        assert seg.fingerprint == graph_fingerprint(small_graph)
        # The attached view hashes to the same content.
        assert graph_fingerprint(registry.attach(seg)) == seg.fingerprint

    def test_default_registry_is_singleton(self):
        assert default_registry() is default_registry()


# ------------------------------------------------------------------ #
# sorted layout in the segment
# ------------------------------------------------------------------ #


class TestSegmentLayout:
    @pytest.fixture
    def sorted_graph(self, medium_graph):
        g = CSRGraph(medium_graph.indptr, medium_graph.indices,
                     medium_graph.weights, "shm-sorted")
        g.sorted_row_order()  # build the layout the segment carries
        return g

    def test_attach_adopts_the_published_layout(self, registry,
                                                sorted_graph,
                                                monkeypatch):
        from repro.matching.ld_seq import ld_seq

        g = sorted_graph
        seg = registry.publish(g)
        rows, edges = g.built_layout()
        assert seg.layout_dtype == rows.dtype.str
        assert seg.nbytes == ((g.num_vertices + 1
                               + 2 * g.num_directed_edges) * 8
                              + rows.nbytes + edges.nbytes + 64)
        want = ld_seq(g).mate

        def refuse(self):
            raise AssertionError("attached graph sorted its layout")

        monkeypatch.setattr(CSRGraph, "_build_layout", refuse)
        attacher = SharedGraphRegistry()
        h = attacher.attach(seg)
        assert h.built_layout() is not None
        assert np.array_equal(ld_seq(h).mate, want)
        for got, ref in zip(h._orders[1], g._orders[1]):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_tampered_seal_builds_lazily(self, registry, sorted_graph):
        from repro.harness.shm import _attach_untracked
        from repro.matching.ld_seq import ld_seq

        g = sorted_graph
        seg = registry.publish(g)
        raw = _attach_untracked(seg.name)
        try:
            raw.buf[seg.nbytes - 1] ^= 1
        finally:
            raw.close()
        h = SharedGraphRegistry().attach(seg)
        assert h.built_layout() is None
        assert np.array_equal(ld_seq(h).mate, ld_seq(g).mate)
        for got, ref in zip(h._orders[1], g._orders[1]):
            assert np.array_equal(got, ref)

    def test_graph_without_layout_publishes_none(self, registry,
                                                 small_graph):
        seg = registry.publish(small_graph)
        assert seg.layout_dtype == ""
        assert SharedGraphRegistry().attach(seg).built_layout() is None


# ------------------------------------------------------------------ #
# environment gate and orphan maintenance
# ------------------------------------------------------------------ #


class TestShmEnabled:
    @pytest.mark.parametrize("value", ["off", "0", "none", "false", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(SHM_ENV, value)
        assert not shm_enabled()

    @pytest.mark.parametrize("value", [None, "on", "1", ""])
    def test_enabled_values(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv(SHM_ENV, raising=False)
        else:
            monkeypatch.setenv(SHM_ENV, value)
        assert shm_enabled()


@pytest.mark.skipif(not HAVE_DEV_SHM, reason="no /dev/shm")
class TestOrphanMaintenance:
    def test_published_segment_listed_and_unlinkable(self, registry,
                                                     small_graph):
        before = _segment_names()
        seg = registry.publish(small_graph)
        assert seg.name in _segment_names() - before
        size = dict(list_orphan_segments())[seg.name]
        assert size >= seg.nbytes
        # Simulate orphan cleanup by name (CLI `cache clear` path).
        assert unlink_segment(seg.name) is True
        assert seg.name not in _segment_names()
        assert unlink_segment(seg.name) is False

    def test_registry_leaves_no_segments(self, small_graph):
        before = _segment_names()
        reg = SharedGraphRegistry()
        reg.publish(small_graph)
        reg.unlink_all()
        assert _segment_names() == before


# ------------------------------------------------------------------ #
# crash hygiene
# ------------------------------------------------------------------ #


def _attach_and_die(seg: SharedGraphSegment) -> None:
    reg = SharedGraphRegistry()
    g = reg.attach(seg)
    assert g.num_vertices == seg.num_vertices
    os._exit(3)  # simulated crash: no atexit, no cleanup


@pytest.mark.skipif(not HAVE_DEV_SHM, reason="no /dev/shm")
def test_worker_crash_leaves_owner_segment_intact(small_graph):
    """A crashing attacher must neither leak segments nor tear the
    owner's segment down (the resource-tracker gotcha)."""
    import multiprocessing

    before = _segment_names()
    owner = SharedGraphRegistry()
    try:
        seg = owner.publish(small_graph)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_attach_and_die, args=(seg,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 3
        # The crash did not take the owner's segment with it...
        assert seg.name in _segment_names()
        g = SharedGraphRegistry().attach(seg)
        assert np.array_equal(g.weights, small_graph.weights)
    finally:
        owner.unlink_all()
    # ...and nothing is left behind once the owner releases.
    assert _segment_names() == before


# ------------------------------------------------------------------ #
# parallel staging: identity, fallback, diagnostics
# ------------------------------------------------------------------ #


def _generator_grid() -> list[Cell]:
    from repro.harness.bench import tie_clique_300

    return [
        Cell("ld_seq", dataset="mouse_gene", quality=True),
        Cell("greedy", dataset="mouse_gene", quality=True),
        Cell("ld_seq", build=tie_clique_300),
        Cell("ld_gpu", build=tie_clique_300,
             config={"num_devices": 2},
             overrides={"collect_stats": False}),
    ]


class TestParallelStaging:
    def test_shm_parallel_bit_identical_to_serial(self, tmp_path):
        before = _segment_names() if HAVE_DEV_SHM else set()
        cells = _generator_grid()
        serial = run_cells(cells)
        registry = SharedGraphRegistry()
        par = run_cells(cells, parallel=2,
                        cache=GraphCache(tmp_path / "cache"),
                        shm=registry)
        assert registry.publishes == 2  # one per distinct graph
        assert registry.segments() == []  # all released after the grid
        for s, p in zip(serial, par):
            assert s.ok and p.ok
            assert np.array_equal(s.result.mate, p.result.mate)
            assert _strip_wall(s.to_dict()) == _strip_wall(p.to_dict())
        if HAVE_DEV_SHM:
            assert _segment_names() == before  # zero residual segments

    def test_shm_disabled_falls_back_to_npz(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SHM_ENV, "off")
        before = _segment_names() if HAVE_DEV_SHM else set()
        cells = _generator_grid()[:2]
        serial = run_cells(cells)
        par = run_cells(cells, parallel=2,
                        cache=GraphCache(tmp_path / "cache"))
        for s, p in zip(serial, par):
            assert _strip_wall(s.to_dict()) == _strip_wall(p.to_dict())
        if HAVE_DEV_SHM:
            assert _segment_names() == before  # nothing ever published

    def test_dead_segment_falls_back_to_npz(self, small_graph, tmp_path):
        """A worker whose segment vanished quietly reloads the ``.npz``
        snapshot — same bytes, verified by fingerprint."""
        from repro.harness.parallel import _GraphRef, _load_ref

        cache = GraphCache(tmp_path)
        path, fingerprint = cache.store(small_graph)
        ghost = SharedGraphSegment(
            name=f"{SEGMENT_PREFIX}0_doesnotexist",
            fingerprint=fingerprint,
            graph_name=small_graph.name,
            num_vertices=small_graph.num_vertices,
            num_entries=small_graph.num_directed_edges,
        )
        loaded = _load_ref(_GraphRef(path=str(path),
                                     fingerprint=fingerprint, shm=ghost))
        assert np.array_equal(loaded.weights, small_graph.weights)

    def test_lambda_builder_clear_error(self, tmp_path):
        cells = [Cell("greedy",
                      build=lambda: build_graph(3, [(0, 1, 1.0)], "ad"))]
        with pytest.raises(ValueError, match="not parallel-safe"):
            run_cells(cells, parallel=2,
                      cache=GraphCache(tmp_path / "cache"))

    def test_records_round_trip_json(self, tmp_path):
        """shm-staged records serialise like any other RunRecord."""
        registry = SharedGraphRegistry()
        rec = run_cells(_generator_grid()[:1], parallel=2,
                        cache=GraphCache(tmp_path / "cache"),
                        shm=registry)[0]
        doc = json.loads(rec.to_json())
        assert doc["status"] == "ok"
        assert doc["graph"] == rec.graph


# ------------------------------------------------------------------ #
# CLI surface
# ------------------------------------------------------------------ #


@pytest.mark.skipif(not HAVE_DEV_SHM, reason="no /dev/shm")
class TestCacheCliShm:
    def test_ls_lists_and_clear_unlinks_segments(self, capsys,
                                                 monkeypatch, tmp_path,
                                                 small_graph):
        from repro.cli import main

        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path))
        registry = SharedGraphRegistry()
        seg = registry.publish(small_graph)
        try:
            assert main(["cache", "ls", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert any(s["name"] == seg.name
                       for s in doc["shm_segments"])
            assert main(["cache", "clear"]) == 0
            out = capsys.readouterr().out
            assert "unlinked" in out
            assert seg.name not in _segment_names()
        finally:
            registry.unlink_all()  # no-op: already unlinked by clear
