"""Shard-parallel composable-coreset matching (repro.matching.coreset).

Covers the ISSUE-9 acceptance criteria: seeded shard assignment is
deterministic across processes and pinned across platforms; the
coordinator's RunRecord is byte-identical whether shards ran serially,
via ``run_cells(parallel=N)``, through a run store, or claimed by a
worker fleet; and coreset quality on blossom-tractable instances clears
the 0.5x floor (the paper guarantees ~3/8) on graphs k-times larger
than any single shard's footprint.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import build_graph, random_graphs
from hypothesis import given
from repro.engine.context import RunContext
from repro.engine.executor import execute
from repro.graph.builders import from_coo
from repro.graph.generators import rmat_graph, similarity_graph
from repro.matching import (
    blossom_mwm,
    coreset_greedy,
    coreset_matching,
    coreset_shard,
    extract_shard,
    shard_assignments,
)
from repro.matching.coreset import edge_subgraph
from repro.matching.validate import verify_result

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _p8():
    u = np.arange(7)
    return from_coo(u, u + 1, np.arange(1.0, 8.0), num_vertices=8,
                    name="p8")


def _strip_wall(doc: dict) -> dict:
    for key in ("wall_time_s", "started_at", "duration_s"):
        doc.pop(key, None)
    if doc.get("provenance"):
        doc["provenance"].pop("wall_time_s", None)
    return doc


class TestShardAssignments:
    def test_pinned_values(self):
        # Hard-coded expected assignments: the partition is a pure
        # function of (seed, edge, k) and must never drift across
        # platforms, numpy versions or refactors — a silent change
        # would shuffle every stored coreset record's fingerprint.
        g = _p8()
        assert shard_assignments(g, 3, 0).tolist() == \
            [2, 0, 0, 0, 1, 1, 0]
        assert shard_assignments(g, 3, 1).tolist() == \
            [0, 1, 1, 0, 2, 1, 0]
        assert shard_assignments(g, 4, 42).tolist() == \
            [1, 0, 3, 0, 0, 3, 2]

    def test_deterministic_across_processes(self):
        g = rmat_graph(8, 4, seed=11)
        local = hashlib.sha256(
            shard_assignments(g, 8, 5).tobytes()).hexdigest()
        out = subprocess.run(
            [sys.executable, "-c",
             "import hashlib\n"
             "from repro.graph.generators import rmat_graph\n"
             "from repro.matching import shard_assignments\n"
             "a = shard_assignments(rmat_graph(8, 4, seed=11), 8, 5)\n"
             "print(hashlib.sha256(a.tobytes()).hexdigest())"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == local

    def test_range_and_seed_sensitivity(self, medium_graph):
        a = shard_assignments(medium_graph, 4, 0)
        assert len(a) == medium_graph.num_edges
        assert a.min() >= 0 and a.max() < 4
        b = shard_assignments(medium_graph, 4, 1)
        assert not np.array_equal(a, b)

    def test_roughly_balanced(self, medium_graph):
        counts = np.bincount(shard_assignments(medium_graph, 4, 0),
                             minlength=4)
        m = medium_graph.num_edges
        assert counts.sum() == m
        # keyed-hash balance: each shard within 3x of the m/k ideal
        assert counts.max() <= 3 * m / 4

    def test_single_shard(self, medium_graph):
        assert not shard_assignments(medium_graph, 1, 9).any()

    def test_bad_shard_count(self, medium_graph):
        with pytest.raises(ValueError):
            shard_assignments(medium_graph, 0)


class TestExtractShard:
    def test_shards_partition_the_edge_set(self, medium_graph):
        u, v, w = medium_graph.edge_array()
        parent = {(int(a), int(b)): float(c)
                  for a, b, c in zip(u, v, w)}
        seen: dict[tuple[int, int], float] = {}
        for i in range(4):
            sub, eids = extract_shard(medium_graph, i, 4, seed=2)
            assert sub.num_vertices == medium_graph.num_vertices
            su, sv, sw = sub.edge_array()
            for a, b, c in zip(su, sv, sw):
                key = (int(a), int(b))
                assert key not in seen  # disjoint
                seen[key] = float(c)
            assert len(eids) == sub.num_edges
        assert seen == parent  # complete

    def test_eid_mapping(self, medium_graph):
        u, v, w = medium_graph.edge_array()
        sub, eids = extract_shard(medium_graph, 1, 3, seed=4)
        su, sv, sw = sub.edge_array()
        assert np.array_equal(su, u[eids])
        assert np.array_equal(sv, v[eids])
        assert np.array_equal(sw, w[eids])

    def test_index_out_of_range(self, medium_graph):
        with pytest.raises(ValueError):
            extract_shard(medium_graph, 4, 4)


class TestEdgeSubgraph:
    def test_mask_selects_edges(self):
        g = build_graph(5, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0),
                            (3, 4, 5.0)])
        u, v, w = g.edge_array()
        sub, eids = edge_subgraph(g, w >= 2.0)
        assert sub.num_edges == 3
        assert sub.num_vertices == 5  # vertex set preserved
        su, sv, sw = sub.edge_array()
        assert np.array_equal(su, u[eids])
        assert np.array_equal(sw, w[eids])
        assert sorted(sw.tolist()) == [2.0, 3.0, 5.0]

    def test_empty_mask(self, medium_graph):
        sub, eids = edge_subgraph(
            medium_graph,
            np.zeros(medium_graph.num_edges, dtype=bool))
        assert sub.num_edges == 0
        assert sub.num_vertices == medium_graph.num_vertices
        assert len(eids) == 0

    def test_full_mask_identity(self, medium_graph):
        sub, _ = edge_subgraph(
            medium_graph,
            np.ones(medium_graph.num_edges, dtype=bool))
        assert np.array_equal(sub.indptr, medium_graph.indptr)
        assert np.array_equal(sub.indices, medium_graph.indices)
        assert np.array_equal(sub.weights, medium_graph.weights)

    def test_validates(self, medium_graph):
        mask = np.ones(medium_graph.num_edges, dtype=bool)
        mask[::3] = False
        sub, _ = edge_subgraph(medium_graph, mask)
        sub.validate()

    def test_wrong_length(self, medium_graph):
        with pytest.raises(ValueError, match="entries"):
            edge_subgraph(medium_graph, np.ones(3, dtype=bool))

    def test_wrong_dtype(self, medium_graph):
        with pytest.raises(ValueError, match="boolean"):
            edge_subgraph(medium_graph,
                          np.ones(medium_graph.num_edges))


class TestCoresetShard:
    def test_result_and_stats(self, medium_graph):
        res = coreset_shard(medium_graph, shard_index=0, num_shards=3,
                            partition_seed=1)
        sub, _ = extract_shard(medium_graph, 0, 3, seed=1)
        verify_result(sub, res)
        assert res.stats["shard_edges"] == sub.num_edges
        cu = res.stats["coreset_u"]
        assert res.stats["coreset_edges"] == len(cu)
        assert sum(res.stats["coreset_w"]) == pytest.approx(res.weight)

    def test_record_stats_survive_executor(self, medium_graph):
        rec = execute("coreset_shard", medium_graph, shard_index=1,
                      num_shards=3, partition_seed=1)
        for key in ("coreset_u", "coreset_v", "coreset_w",
                    "shard_edges", "coreset_edges"):
            assert key in rec.extra
        # JSON round-trip (what a store serves back) keeps the payload
        doc = json.loads(rec.to_json())
        assert doc["extra"]["coreset_w"] == rec.extra["coreset_w"]


def _check_valid(graph, res):
    """Valid + weight-consistent.  Maximality on the *full* graph is
    deliberately not asserted: a composable-coreset matching is maximal
    on the coreset union, but an edge outside every coreset may join
    two free vertices — ABM'19's guarantee is weight-relative."""
    from repro.matching.validate import is_valid_matching, \
        matching_weight

    assert is_valid_matching(graph, res.mate)
    assert matching_weight(graph, res.mate) == pytest.approx(
        res.weight)


class TestCoordinator:
    def test_valid_matching_and_stats(self, medium_graph):
        res = coreset_matching(medium_graph, num_shards=4, seed=3)
        _check_valid(medium_graph, res)
        assert res.algorithm == "coreset_greedy"
        assert len(res.stats["shard_edges"]) == 4
        assert res.stats["peak_shard_edges"] == \
            max(res.stats["shard_edges"])
        assert sum(res.stats["shard_edges"]) == medium_graph.num_edges
        assert res.stats["merge_edges"] <= \
            sum(res.stats["coreset_edges"])

    def test_memory_budget(self, medium_graph):
        # The point of sharding: each worker holds a strict fraction of
        # the graph — the input is k-times larger than the per-shard
        # budget (up to hash imbalance).
        k = 4
        res = coreset_matching(medium_graph, num_shards=k, seed=3)
        peak = res.stats["peak_shard_edges"]
        assert peak < medium_graph.num_edges
        assert peak * k >= medium_graph.num_edges
        assert medium_graph.num_edges >= (k // 2) * peak

    def test_quality_floor_vs_blossom(self):
        # >= 0.5x blossom on tractable instances (paper bound ~3/8).
        for g in (rmat_graph(9, 5, seed=106, name="kron-q"),
                  similarity_graph(500, avg_degree=24.0, seed=114,
                                   name="gene-q")):
            opt = blossom_mwm(g)
            for k in (2, 4, 8):
                res = coreset_matching(g, num_shards=k, seed=1)
                assert res.weight >= 0.5 * opt.weight

    def test_ld_base_matches_greedy_edges(self, medium_graph):
        a = coreset_matching(medium_graph, num_shards=4, base="greedy",
                             seed=5)
        b = coreset_matching(medium_graph, num_shards=4, base="ld",
                             seed=5)
        # same (w, eid) total order => same selected edge set
        assert np.array_equal(a.mate, b.mate)

    def test_unknown_base(self, medium_graph):
        with pytest.raises(ValueError, match="unknown coreset base"):
            coreset_matching(medium_graph, base="suitor")

    def test_single_shard_equals_base(self, medium_graph):
        from repro.matching import greedy_matching

        res = coreset_matching(medium_graph, num_shards=1, seed=0)
        ref = greedy_matching(medium_graph)
        assert np.array_equal(res.mate, ref.mate)
        assert res.weight == pytest.approx(ref.weight)


class TestBitIdentity:
    def _record(self, g, parallel=0, store=None, dataset=None,
                seed=2) -> dict:
        rec = execute("coreset_greedy", g, RunContext(seed=seed),
                      num_shards=3, shard_parallel=parallel,
                      store=store, dataset=dataset)
        return _strip_wall(json.loads(rec.to_json()))

    def test_serial_vs_parallel_grid(self):
        # generator grid: topology x weight structure
        grid = [
            rmat_graph(7, 4, seed=1, name="g-rmat"),
            similarity_graph(120, avg_degree=10.0, seed=2,
                             name="g-sim"),
            from_coo(np.arange(99), np.arange(99) + 1, np.ones(99),
                     num_vertices=100, name="g-tie-path"),
        ]
        for g in grid:
            serial = self._record(g)
            for n in (1, 2):
                assert self._record(g, parallel=n) == serial, g.name

    def test_store_modes(self, tmp_path):
        g = similarity_graph(150, avg_degree=8.0, seed=9,
                             name="store-g")
        ref = self._record(g)
        db = str(tmp_path / "cs.db")
        # first store run executes + persists the shards
        assert self._record(g, store=db) == ref
        # second serves every shard from the store (no result object)
        assert self._record(g, store=db) == ref
        # and parallel against the same store still agrees
        assert self._record(g, store=db, parallel=2) == ref

    def test_seed_changes_record(self):
        g = rmat_graph(7, 4, seed=1, name="g-rmat")
        assert self._record(g, seed=2) != self._record(g, seed=3)


class TestWorkerFleet:
    def test_fleet_round1_bit_identical(self, tmp_path):
        # Shard cells registered in a store are claimable by the PR-8
        # worker fleet: a worker subprocess executes round 1 alone,
        # then the coordinator serves every shard from the store and
        # must produce the same record as an in-process run.
        from repro.engine.cells import Cell, materialise_cells
        from repro.harness.datasets import load_dataset
        from repro.store import RunStore
        from repro.store.fingerprint import fingerprint_for

        name = "mouse_gene"
        g = load_dataset(name)
        ref = _strip_wall(json.loads(
            execute("coreset_greedy", g, RunContext(seed=7),
                    num_shards=4, dataset=name).to_json()))

        db = str(tmp_path / "fleet.db")
        store = RunStore(db)
        base = {"num_shards": 4, "partition_seed": 7, "base": "greedy"}
        cells = [Cell("coreset_shard", dataset=name,
                      overrides={**base, "shard_index": i},
                      label=f"coreset-shard-{i}/4")
                 for i in range(4)]
        for mc in materialise_cells(cells, RunContext()):
            fp, config, gfp = fingerprint_for(mc.cell, mc.ctx, g)
            store.register(fp, algorithm="coreset_shard",
                           config=config, seed=mc.ctx.seed,
                           graph_fingerprint=gfp, dataset=name)
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.store import RunStore\n"
             "from repro.service.worker import worker_loop\n"
             f"s = RunStore({db!r})\n"
             "summ = worker_loop(s, poll_s=0.05, idle_exit_s=0)\n"
             "print(summ.executed, summ.ok)"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, check=True, timeout=120)
        executed, ok = out.stdout.split()
        assert (executed, ok) == ("4", "4"), out.stdout
        fleet = _strip_wall(json.loads(
            execute("coreset_greedy", g, RunContext(seed=7),
                    num_shards=4, dataset=name, store=db).to_json()))
        assert fleet == ref


class TestPropertyGrid:
    @given(random_graphs(max_vertices=20, max_edges=50))
    def test_serial_parallel_identity_property(self, g):
        a = coreset_matching(g, num_shards=3, seed=1)
        b = coreset_matching(g, num_shards=3, seed=1,
                             shard_parallel=2)
        assert np.array_equal(a.mate, b.mate)
        assert a.weight == b.weight
        assert a.stats == b.stats

    @given(random_graphs(max_vertices=20, max_edges=50))
    def test_always_valid_and_half_of_greedy(self, g):
        from repro.matching import greedy_matching

        res = coreset_matching(g, num_shards=3, seed=1)
        _check_valid(g, res)
        # every shard matching is maximal on its shard, so the merged
        # matching can't collapse: it weighs at least half of what
        # single-machine greedy finds on tiny instances
        ref = greedy_matching(g)
        assert res.weight >= 0.5 * ref.weight - 1e-9


class TestBenchSuite:
    def test_suite_registered(self):
        from repro.harness.bench import SUITES

        names = [w.name for w in SUITES["coreset"]]
        assert any(w.algorithm == "blossom"
                   for w in SUITES["coreset"])
        assert any("coreset_greedy" in n for n in names)
        assert any("coreset_ld" in n for n in names)
        for w in SUITES["coreset"]:
            if w.algorithm.startswith("coreset"):
                assert w.overrides["seed"] == 1
                assert w.overrides["dataset"] == w.dataset

    def test_compare_reports_gates_coreset_metrics(self):
        def doc(peak, ratio):
            return {
                "schema": 1, "suite": "coreset", "repeats": 1,
                "provenance": {},
                "workloads": [{
                    "name": "w", "algorithm": "coreset_greedy",
                    "dataset": "d", "status": "ok",
                    "median_sim_time_s": None,
                    "median_wall_time_s": 0.1, "weight": 1.0,
                    "iterations": 0, "host_entries_scanned": None,
                    "peak_shard_edges": peak,
                    "approx_ratio_vs_blossom": ratio,
                }],
            }

        from repro.harness.bench import compare_reports

        base = doc(100, 0.8)
        assert compare_reports(doc(100, 0.8), base) == []
        assert compare_reports(doc(104, 0.79), base) == []  # in tol
        probs = compare_reports(doc(120, 0.8), base)
        assert probs and "peak_shard_edges" in probs[0]
        probs = compare_reports(doc(100, 0.7), base)
        assert probs and "approx_ratio_vs_blossom" in probs[0]

    def test_baseline_committed_and_valid(self):
        from repro.harness.bench import validate_bench_report

        path = os.path.join(os.path.dirname(__file__), "..",
                            "benchmarks", "baseline_coreset.json")
        doc = json.load(open(path))
        validate_bench_report(doc)
        ratios = [w["approx_ratio_vs_blossom"]
                  for w in doc["workloads"]
                  if "approx_ratio_vs_blossom" in w]
        assert ratios and all(r >= 0.5 for r in ratios)


class TestCLI:
    def test_shards_rejected_for_non_coreset(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "-a", "greedy", "-d", "mouse_gene",
                  "--shards", "4"])
        assert exc.value.code == 2

    def test_coreset_run(self, capsys):
        from repro.cli import main

        assert main(["run", "-a", "coreset_greedy", "-d",
                     "mouse_gene", "--quality", "--shards", "4",
                     "--parallel", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "peak_shard_edges" in out

    def test_coreset_run_json(self, capsys):
        from repro.cli import main

        assert main(["run", "-a", "coreset_ld", "-d", "mouse_gene",
                     "--quality", "--shards", "2", "--seed", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["extra"]["peak_shard_edges"] > 0
        assert len(doc["extra"]["shard_edges"]) == 2
