"""Tests for the persistent run store (repro.store).

Covers the content-addressed fingerprints, the SQLite lease lifecycle,
bit-identical resume of interrupted grids, concurrent claims across
real worker processes, stale-lease reclaim with a forced-dead
heartbeat, the to_json round-trip stability contract, and the
``store``/``cache`` CLI families.
"""

import json
import multiprocessing
import os
import sqlite3
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.engine.cells import Cell, error_record, materialise_cells, run_cells
from repro.engine.context import RunContext
from repro.engine.record import SCHEMA_VERSION, RunRecord
from repro.engine.sinks import InstrumentationSink
from repro.gpusim.spec import DGX_2
from repro.store import (
    RunStore,
    cell_config,
    cell_fingerprint,
    cell_from_config,
    fingerprint_for,
    resolve_store,
)
from repro.store.db import STORE_SCHEMA_VERSION


def _grid(devices=(1, 2, 4), batches=(None, 2)):
    return [
        Cell("ld_gpu", dataset="GAP-kron",
             config={"num_devices": nd, "num_batches": nb},
             overrides={"collect_stats": False})
        for nd in devices for nb in batches
    ]


def _strip_wall(record):
    """A record's JSON document minus the wall-clock fields — the only
    legitimately non-deterministic bits."""
    doc = json.loads(record.to_json())
    for key in ("wall_time_s", "started_at", "duration_s"):
        doc.pop(key, None)
    (doc.get("provenance") or {}).pop("wall_time_s", None)
    return doc


class TestFingerprint:
    def _bound(self, cell):
        return materialise_cells([cell])[0]

    def test_deterministic(self, medium_graph):
        mc = self._bound(_grid()[0])
        a = fingerprint_for(mc.cell, mc.ctx, medium_graph)
        b = fingerprint_for(mc.cell, mc.ctx, medium_graph)
        assert a == b
        assert a[0].startswith("cell:") and len(a[0]) == 45

    def test_sensitive_to_inputs(self, medium_graph, path_graph):
        cells = _grid()
        mc = self._bound(cells[0])
        base, _, _ = fingerprint_for(mc.cell, mc.ctx, medium_graph)
        # different configuration
        other = self._bound(cells[1])
        assert fingerprint_for(other.cell, other.ctx,
                               medium_graph)[0] != base
        # different graph content
        assert fingerprint_for(mc.cell, mc.ctx, path_graph)[0] != base
        # different seed
        seeded = self._bound(
            Cell("ld_gpu", config=dict(cells[0].config),
                 overrides={"collect_stats": False}, seed=7))
        assert fingerprint_for(seeded.cell, seeded.ctx,
                               medium_graph)[0] != base
        # different platform spec (not just name: a rescaled platform
        # must change the address too)
        onv100 = self._bound(
            Cell("ld_gpu", config={**cells[0].config,
                                   "platform": DGX_2},
                 overrides={"collect_stats": False}))
        assert fingerprint_for(onv100.cell, onv100.ctx,
                               medium_graph)[0] != base
        # record-schema bump invalidates
        cfg = cell_config(mc.cell, mc.ctx)
        gfp = "sha256:" + "0" * 32
        assert cell_fingerprint(cfg, gfp, SCHEMA_VERSION) != \
            cell_fingerprint(cfg, gfp, SCHEMA_VERSION + 1)

    def test_config_reconstructs_exactly(self):
        mc = self._bound(Cell("ld_gpu", dataset="mouse_gene",
                              config={"num_devices": 2,
                                      "num_batches": 3},
                              overrides={"collect_stats": False},
                              label="x", seed=11))
        config = cell_config(mc.cell, mc.ctx)
        rebuilt = materialise_cells([cell_from_config(config)])[0]
        assert cell_config(rebuilt.cell, rebuilt.ctx) == config

    def test_json_roundtripped_config_reconstructs(self):
        # resume reads configs back out of SQLite: the round trip
        # through JSON must not perturb the fingerprint
        mc = self._bound(Cell("ld_gpu", dataset="mouse_gene",
                              config={"num_devices": 2}))
        config = cell_config(mc.cell, mc.ctx)
        thawed = json.loads(json.dumps(config))
        rebuilt = materialise_cells([cell_from_config(thawed)])[0]
        assert cell_config(rebuilt.cell, rebuilt.ctx) == config

    def test_pre_change_config_upgrades(self):
        """Configs stored while cells carried ``pointing_engine``
        rebuild: ``null`` is dropped, and a set engine becomes the
        ``engine`` override."""
        mc = self._bound(Cell("ld_seq", dataset="mouse_gene",
                              quality=True, label="x"))
        config = cell_config(mc.cell, mc.ctx)
        assert "pointing_engine" not in config
        old = json.loads(json.dumps({**config, "pointing_engine": None}))
        rebuilt = materialise_cells([cell_from_config(old)])[0]
        assert cell_config(rebuilt.cell, rebuilt.ctx) == config
        cell = cell_from_config({**config, "pointing_engine": "segment"})
        assert cell.overrides == {"engine": "segment"}
        record = run_cells([cell], on_error="raise")[0]
        assert record.extra["pointing_engine"] == "segment"

    def test_in_process_graph_not_resumable(self, medium_graph):
        mc = self._bound(Cell("ld_gpu", config={"num_devices": 1}))
        config = cell_config(mc.cell, mc.ctx)
        with pytest.raises(ValueError, match="not resumable"):
            cell_from_config(config)

    def test_ctx_dataset_cell_reconstructs(self):
        # a sweep passes its graph in-process but stamps the dataset
        # name on the context — that is enough to reconstruct, and the
        # rebuilt cell keeps dataset=None so the config (and the
        # fingerprint derived from it) is unchanged
        mc = self._bound(Cell("ld_gpu", config={"num_devices": 2},
                              ctx=RunContext(dataset="mouse_gene")))
        config = cell_config(mc.cell, mc.ctx)
        rebuilt = materialise_cells([cell_from_config(config)])[0]
        assert rebuilt.cell.dataset is None
        assert cell_config(rebuilt.cell, rebuilt.ctx) == config


class TestRecordJson:
    def test_sorted_keys_and_trailing_newline(self, triangle):
        rec = run_cells([Cell("greedy", ctx=RunContext())],
                        graph=triangle)[0]
        text = rec.to_json()
        assert text.endswith("\n") and not text.endswith("\n\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_roundtrip_stability(self, triangle):
        rec = run_cells([Cell("ld_gpu", ctx=RunContext(),
                              overrides={"collect_stats": False})],
                        graph=triangle)[0]
        text = rec.to_json()
        assert RunRecord.from_json(text).to_json() == text
        indented = rec.to_json(indent=1)
        assert indented.endswith("\n")
        assert RunRecord.from_json(indented).to_json(indent=1) == indented


class TestStoreLifecycle:
    def test_register_claim_complete_lookup(self, tmp_path, triangle):
        store = RunStore(tmp_path / "runs.db")
        mc = materialise_cells([Cell("greedy")])[0]
        fp, config, gfp = fingerprint_for(mc.cell, mc.ctx, triangle)
        assert store.register(fp, algorithm="greedy", config=config,
                              graph_fingerprint=gfp)
        assert not store.register(fp, algorithm="greedy", config=config)
        assert store.lookup(fp) is None
        assert store.claim(fp)
        assert not store.claim(fp)  # already leased by us
        rec = run_cells([mc.cell], graph=triangle)[0]
        store.complete(fp, rec)
        served = store.lookup(fp)
        assert served.to_json() == rec.to_json()
        assert served.result is None
        assert store.counts()["done"] == 1
        assert store.hits == 1 and store.claims == 1

    def test_release_returns_to_pending(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        store.register("cell:" + "a" * 40, algorithm="x", config={})
        assert store.claim("cell:" + "a" * 40)
        assert store.release("cell:" + "a" * 40)
        assert store.counts()["pending"] == 1
        assert store.claim("cell:" + "a" * 40)

    def test_error_rows_are_reclaimable(self, tmp_path, triangle):
        store = RunStore(tmp_path / "runs.db")
        cell = Cell("ld_gpu", overrides={"partition": "bogus"})
        rec = run_cells([cell], graph=triangle, store=store)[0]
        assert rec.status == "error"
        assert store.counts()["error"] == 1
        # error rows are served to nobody and claimed by the next run
        rerun = run_cells([cell], graph=triangle, store=store)[0]
        assert rerun.status == "error"
        row = store.runs("error")[0]
        assert row.attempts == 2

    def test_error_record_is_readdressable(self, tmp_path, triangle):
        store = RunStore(tmp_path / "runs.db")
        cell = Cell("ld_gpu", dataset="mouse_gene",
                    overrides={"partition": "bogus"})
        rec = run_cells([cell], store=store)[0]
        fp = rec.extra["fingerprint"]
        assert fp.startswith("cell:")
        assert rec.extra["cell_config"]["algorithm"] == "ld_gpu"
        # the recorded config rebuilds the exact cell: re-fingerprinting
        # lands on the same store row
        rebuilt = materialise_cells(
            [cell_from_config(rec.extra["cell_config"])])[0]
        g_rebuilt = rebuilt.cell  # dataset-backed, resolves in-store run
        rerun = run_cells([g_rebuilt], store=store)
        assert store.counts() == {"pending": 0, "leased": 0,
                                  "done": 0, "error": 1}
        # storeless error records carry the same address (satellite:
        # re-addressable even without a store)
        plain = run_cells([cell])[0]
        assert plain.extra["fingerprint"] == fp

    def test_store_roundtrips_through_pickle(self, tmp_path):
        import pickle

        store = RunStore(tmp_path / "runs.db", lease_seconds=42.0)
        store.register("cell:" + "b" * 40, algorithm="x", config={})
        thawed = pickle.loads(pickle.dumps(store))
        assert thawed.path == store.path
        assert thawed.lease_seconds == 42.0
        assert thawed.counts()["pending"] == 1

    def test_resolve_store(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "runs.db")
        assert resolve_store(store) is store
        assert resolve_store(tmp_path / "x.db").path == tmp_path / "x.db"
        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        assert resolve_store(None) is None
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "env.db"))
        assert resolve_store(None).path == tmp_path / "env.db"
        assert resolve_store(None, use_env=False) is None


class TestStoreConnect:
    """Each connection probes the schema once; only a store that is not
    a current-schema WAL store runs the schema script."""

    def test_current_store_skips_initialisation(self, tmp_path,
                                                monkeypatch):
        db = tmp_path / "runs.db"
        calls = []
        real = RunStore._initialise
        monkeypatch.setattr(
            RunStore, "_initialise",
            lambda self, conn: calls.append(1) or real(self, conn))
        RunStore(db).counts()
        assert calls == [1]  # fresh file: schema, WAL, claim index
        store = RunStore(db)
        store.register("cell:" + "c" * 40, algorithm="x", config={})
        assert calls == [1]  # current WAL store: the probe suffices
        assert store.claim_next().fingerprint == "cell:" + "c" * 40

    def test_recreated_file_gets_schema_again(self, tmp_path):
        db = tmp_path / "runs.db"
        with RunStore(db) as store:
            store.register("cell:" + "d" * 40, algorithm="x", config={})
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(f"{db}{suffix}"):
                os.remove(f"{db}{suffix}")
        sqlite3.connect(str(db)).close()  # an empty file, same path
        store = RunStore(db)
        assert store.counts() == {"pending": 0, "leased": 0,
                                  "done": 0, "error": 0}
        assert store.register("cell:" + "d" * 40, algorithm="x",
                              config={})
        assert store.meta_get("schema") == str(STORE_SCHEMA_VERSION)
        mode = store._connect().execute("PRAGMA journal_mode").fetchone()
        assert mode[0] == "wal"

    def test_busy_timeout_is_thirty_seconds(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        timeout = store._connect().execute("PRAGMA busy_timeout").fetchone()
        assert timeout[0] == 30000

    def test_count_matches_select(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        for i, client in enumerate(("a", "a", "b", None, "a")):
            store.register(f"cell:{i:040d}", algorithm="x", config={},
                           client=client)
        store.claim(f"cell:{0:040d}")
        store.request_cancel(f"cell:{1:040d}")
        store.request_cancel(f"cell:{2:040d}")
        for status in (None, "pending", ("pending", "leased")):
            for client in (None, "a", ("a", "b")):
                for flag in (None, True, False):
                    rows = [r for r in store.select(status=status,
                                                    client=client)
                            if flag is None or r.cancel_requested == flag]
                    assert store.count(status=status, client=client,
                                       cancel_requested=flag) == len(rows)


class _KillAfter(InstrumentationSink):
    """Raises SystemExit after N completed cells — a deterministic
    stand-in for kill -9 mid-sweep (the lease is released, never
    completed)."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.seen = 0

    def on_run_end(self, record) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise SystemExit(42)


class TestRunCellsStore:
    def test_second_run_all_hits_bit_identical(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        cells = _grid(devices=(1, 2), batches=(None,))
        first = run_cells(cells, store=store)
        second = run_cells(cells, store=store)
        assert [r.to_json() for r in first] == \
            [r.to_json() for r in second]
        assert all(r.result is not None for r in first)
        assert all(r.result is None for r in second)
        assert store.hits == len(cells)

    def test_store_matches_plain_run(self, tmp_path):
        cells = _grid(devices=(1, 2), batches=(None,))
        stored = run_cells(cells, store=RunStore(tmp_path / "runs.db"))
        plain = run_cells(cells)
        assert [_strip_wall(r) for r in stored] == \
            [_strip_wall(r) for r in plain]

    def test_interrupt_and_resume_bit_identical(self, tmp_path):
        db = tmp_path / "runs.db"
        cells = _grid()
        reference = run_cells(cells)

        with pytest.raises(SystemExit):
            run_cells(cells, RunContext(sinks=(_KillAfter(2),)),
                      store=RunStore(db))
        store = RunStore(db)
        counts = store.counts()
        assert counts["done"] == 2 - 1  # the killed cell released
        assert counts["pending"] == 1
        assert counts["leased"] == 0

        resumed = run_cells(cells, store=store)
        assert [_strip_wall(r) for r in resumed] == \
            [_strip_wall(r) for r in reference]
        assert store.counts()["done"] == len(cells)
        assert store.hits == 1  # only the pre-kill cell was served

    def test_parallel_store_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "gc"))
        cells = _grid(devices=(1, 2), batches=(None, 2))
        par = run_cells(cells, parallel=2,
                        store=RunStore(tmp_path / "par.db"))
        ser = run_cells(cells, store=RunStore(tmp_path / "ser.db"))
        assert [_strip_wall(r) for r in par] == \
            [_strip_wall(r) for r in ser]
        assert RunStore(tmp_path / "par.db").counts()["done"] == \
            len(cells)

    def test_store_by_path(self, tmp_path, triangle):
        # run_cells accepts a bare path
        rec = run_cells([Cell("greedy")], graph=triangle,
                        store=tmp_path / "runs.db")[0]
        assert rec.ok
        assert RunStore(tmp_path / "runs.db").counts()["done"] == 1


class TestStaleLease:
    def test_reclaim_after_dead_heartbeat(self, tmp_path):
        now = [1000.0]
        db = tmp_path / "runs.db"
        w1 = RunStore(db, lease_seconds=10.0, clock=lambda: now[0],
                      worker_id="w1")
        w2 = RunStore(db, lease_seconds=10.0, clock=lambda: now[0],
                      worker_id="w2")
        fp = "cell:" + "c" * 40
        w1.register(fp, algorithm="x", config={})
        assert w1.claim(fp)
        assert not w2.claim(fp)  # live lease

        now[0] += 5.0
        assert w1.heartbeat(fp)  # extends to t=1015
        now[0] += 8.0            # t=1013: heartbeat kept it alive
        assert not w2.claim(fp)

        now[0] += 5.0            # t=1018: w1 is dead
        assert w2.claim(fp)
        assert w2.stale_reclaims == 1
        # the dead worker's lease is gone for good
        assert not w1.heartbeat(fp)
        assert not w1.release(fp)
        row = w2.get(fp)
        assert row.worker == "w2" and row.attempts == 2

    def test_reclaim_stale_sweep(self, tmp_path):
        now = [0.0]
        store = RunStore(tmp_path / "runs.db", lease_seconds=10.0,
                         clock=lambda: now[0])
        for ch in "abc":
            store.register("cell:" + ch * 40, algorithm="x", config={})
            assert store.claim("cell:" + ch * 40)
        assert store.reclaim_stale() == 0
        now[0] += 11.0
        assert store.reclaim_stale() == 3
        assert store.counts()["pending"] == 3
        assert store.stale_reclaims == 3

    def test_gc_prunes_errors(self, tmp_path, triangle):
        store = RunStore(tmp_path / "runs.db")
        run_cells([Cell("ld_gpu", overrides={"partition": "bogus"})],
                  graph=triangle, store=store)
        assert store.counts()["error"] == 1
        out = store.gc(prune_errors=True)
        assert out["errors_pruned"] == 1
        assert store.counts()["error"] == 0


def _race_worker(payload):
    """Both workers busy-wait to a shared deadline, then run the same
    single-cell grid against the same store."""
    db, deadline = payload
    store = RunStore(db)
    cell = Cell("ld_gpu", dataset="mouse_gene",
                config={"num_devices": 1},
                overrides={"collect_stats": False})
    while time.time() < deadline:
        pass
    record = run_cells([cell], store=store)[0]
    return record.to_json(), store.claims, store.hits


def _claim_worker(payload):
    db, fp, deadline, worker_id = payload
    store = RunStore(db, worker_id=worker_id)
    while time.time() < deadline:
        pass
    return store.claim(fp)


def _open_worker(payload):
    """Busy-wait to a shared deadline, then open (and so create) the
    store: every worker switches the same fresh file to WAL at once."""
    db, deadline = payload
    while time.time() < deadline:
        pass
    return RunStore(db).counts()


@pytest.mark.skipif("fork" not in
                    multiprocessing.get_all_start_methods(),
                    reason="fork start method unavailable")
class TestConcurrentClaims:
    def test_fresh_store_opened_by_many_processes(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        workers = 4
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=ctx) as pool:
            for attempt in range(20):
                db = str(tmp_path / f"runs{attempt}.db")
                deadline = time.time() + 0.1
                counts = list(pool.map(_open_worker,
                                       [(db, deadline)] * workers))
                assert counts == [{"pending": 0, "leased": 0, "done": 0,
                                   "error": 0}] * workers

    def test_exactly_one_claim_wins(self, tmp_path):
        db = str(tmp_path / "runs.db")
        fp = "cell:" + "d" * 40
        RunStore(db).register(fp, algorithm="x", config={})
        deadline = time.time() + 0.5
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            wins = list(pool.map(
                _claim_worker,
                [(db, fp, deadline, "w1"), (db, fp, deadline, "w2")]))
        assert sorted(wins) == [False, True]
        row = RunStore(db).get(fp)
        assert row.status == "leased" and row.attempts == 1

    def test_loser_gets_stored_result(self, tmp_path):
        db = str(tmp_path / "runs.db")
        deadline = time.time() + 0.5
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            results = list(pool.map(_race_worker,
                                    [(db, deadline), (db, deadline)]))
        (json_a, claims_a, hits_a), (json_b, claims_b, hits_b) = results
        # exactly one worker executed the cell...
        assert sorted([claims_a, claims_b]) == [0, 1]
        # ...the other was served the winner's record, byte for byte
        assert json_a == json_b
        assert claims_a + hits_a == 1 and claims_b + hits_b == 1
        store = RunStore(db)
        assert store.counts() == {"pending": 0, "leased": 0,
                                  "done": 1, "error": 0}
        assert store.get(store.runs()[0].fingerprint).attempts == 1


class TestStoreTelemetry:
    def test_counters_emit(self, tmp_path, triangle):
        from repro.telemetry import MetricsRegistry, to_prometheus
        from repro.telemetry.spans import record_into

        store = RunStore(tmp_path / "runs.db")
        cell = Cell("greedy")
        reg = MetricsRegistry()
        with record_into(reg):
            run_cells([cell], graph=triangle, store=store)
            run_cells([cell], graph=triangle, store=store)
        text = to_prometheus(reg.snapshot())
        assert "repro_store_claims_total 1" in text
        assert "repro_store_hits_total 1" in text


class TestHarnessIntegration:
    def test_sweep_ld_gpu_store_resumes(self, tmp_path, medium_graph):
        from repro.harness.sweep import sweep_ld_gpu

        db = tmp_path / "runs.db"
        a = sweep_ld_gpu(medium_graph, device_counts=(1, 2),
                         store=RunStore(db))
        store = RunStore(db)
        b = sweep_ld_gpu(medium_graph, device_counts=(1, 2),
                         store=store)
        assert store.hits == len(b.records)
        assert [vars(p) for p in a.points] == [vars(p) for p in b.points]
        plain = sweep_ld_gpu(medium_graph, device_counts=(1, 2))
        assert [vars(p) for p in plain.points] == \
            [vars(p) for p in a.points]

    def test_bench_repeats_stay_addressable(self, tmp_path):
        from repro.harness.bench import run_bench

        store = RunStore(tmp_path / "runs.db")
        report = run_bench("smoke", repeats=2, store=store)
        assert all(w["status"] == "ok" for w in report["workloads"])
        # every (workload, replicate) pair has its own row — repeats
        # did not collapse onto one fingerprint
        assert store.counts()["done"] == \
            2 * len(report["workloads"])
        assert report["provenance"]["run_store"] == str(store.path)
        again = run_bench("smoke", repeats=2, store=store)
        assert store.hits == store.counts()["done"]
        assert [w["median_sim_time_s"] for w in again["workloads"]] == \
            [w["median_sim_time_s"] for w in report["workloads"]]

    def test_best_ld_gpu_store_hit_reexecutes_winner(self, tmp_path,
                                                     medium_graph):
        from repro.harness.runners import best_ld_gpu

        store = RunStore(tmp_path / "runs.db")
        r1, nd1, nb1 = best_ld_gpu(medium_graph, device_counts=(1, 2),
                                   batch_counts=(None,), store=store)
        r2, nd2, nb2 = best_ld_gpu(medium_graph, device_counts=(1, 2),
                                   batch_counts=(None,), store=store)
        assert (nd1, nb1) == (nd2, nb2)
        assert r2.mate is not None  # winner re-executed for its result
        assert r1.sim_time == r2.sim_time


class TestStoreCli:
    def _seed_store(self, tmp_path):
        db = str(tmp_path / "runs.db")
        run_cells([Cell("ld_gpu", dataset="mouse_gene",
                        config={"num_devices": 1},
                        overrides={"collect_stats": False})],
                  store=RunStore(db))
        return db

    def test_ls_show_export_gc(self, tmp_path, capsys):
        db = self._seed_store(tmp_path)
        assert main(["store", "ls", "--store", db]) == 0
        out = capsys.readouterr().out
        assert "done: 1" in out and "ld_gpu" in out

        assert main(["store", "ls", "--store", db, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        fp = doc[0]["fingerprint"]

        # unique prefix, cell: prefix optional
        assert main(["store", "show", fp[5:15], "--store", db]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["fingerprint"] == fp
        assert shown["record"]["status"] == "ok"
        assert shown["config"]["algorithm"] == "ld_gpu"

        assert main(["store", "show", "ffff", "--store", db]) == 1
        capsys.readouterr()

        assert main(["store", "export", "--store", db]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported["counts"]["done"] == 1
        assert exported["runs"][0]["record"]["algorithm"] == "ld_gpu"

        assert main(["store", "gc", "--store", db]) == 0
        assert "stale leases reclaimed: 0" in capsys.readouterr().out

    def test_resume_runs_pending_cells(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        cells = [Cell("ld_gpu", dataset="mouse_gene",
                      config={"num_devices": nd},
                      overrides={"collect_stats": False})
                 for nd in (1, 2)]
        with pytest.raises(SystemExit):
            run_cells(cells, RunContext(sinks=(_KillAfter(1),)),
                      store=RunStore(db))
        assert RunStore(db).counts()["pending"] == 1
        assert main(["store", "resume", "--store", db]) == 0
        out = capsys.readouterr().out
        assert "resumed 1 cell(s): 1 ok" in out
        # only the killed cell was registered before the interrupt; the
        # second never ran, so the grid run below registers + executes it
        assert RunStore(db).counts()["done"] == 1
        store = RunStore(db)
        again = run_cells(cells, store=store)
        assert store.hits == 1 and all(r.ok for r in again)
        assert store.counts()["done"] == 2

    def test_resume_ctx_dataset_cells(self, tmp_path, capsys):
        # sweep-style grid: the graph arrives in-process, the dataset
        # name rides on the context; resume reloads it by that name
        from repro.harness.datasets import load_dataset

        db = str(tmp_path / "runs.db")
        g = load_dataset("mouse_gene")
        cells = [Cell("ld_gpu", config={"num_devices": nd},
                      overrides={"collect_stats": False})
                 for nd in (1, 2)]
        ctx = RunContext(dataset="mouse_gene",
                         sinks=(_KillAfter(1),))
        with pytest.raises(SystemExit):
            run_cells(cells, ctx, graph=g, store=RunStore(db))
        assert RunStore(db).counts()["pending"] == 1

        assert main(["store", "resume", "--store", db]) == 0
        assert "resumed 1 cell(s): 1 ok" in capsys.readouterr().out
        assert RunStore(db).counts()["done"] == 1
        # the resumed record lands on the killed cell's row and equals
        # a fresh storeless execution bit-for-bit (modulo wall clock)
        store = RunStore(db)
        served = run_cells(cells, RunContext(dataset="mouse_gene"),
                           graph=g, store=store)
        assert store.hits == 1
        plain = run_cells(cells, RunContext(dataset="mouse_gene"),
                          graph=g)
        assert [_strip_wall(r) for r in served] == \
            [_strip_wall(r) for r in plain]

    def test_resume_nothing_to_do(self, tmp_path, capsys):
        db = self._seed_store(tmp_path)
        assert main(["store", "resume", "--store", db]) == 0
        assert "nothing to resume" in capsys.readouterr().out

    def test_store_env_var(self, tmp_path, capsys, monkeypatch):
        db = self._seed_store(tmp_path)
        monkeypatch.setenv("REPRO_RUN_STORE", db)
        assert main(["store", "ls"]) == 0
        assert "done: 1" in capsys.readouterr().out

    def test_missing_store_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["store", "ls"])
        assert exc.value.code == 2

    def test_stats_rejects_store(self, tmp_path, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "whatever.json", "--store",
                  str(tmp_path / "x.db")])
        assert exc.value.code == 2

    def test_run_and_sweep_with_store(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        argv = ["run", "-a", "ld_gpu", "-d", "mouse_gene", "-n", "2",
                "--store", db, "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first  # served bit-identically

        assert main(["sweep", "-d", "mouse_gene", "-n", "1", "2",
                     "--store", db]) == 0
        rendered = capsys.readouterr().out
        assert main(["sweep", "-d", "mouse_gene", "-n", "1", "2",
                     "--store", db]) == 0
        assert capsys.readouterr().out == rendered


class TestCacheCli:
    def test_ls_evict_clear(self, tmp_path, capsys, monkeypatch,
                            medium_graph, path_graph):
        from repro.harness.cache import GraphCache

        root = tmp_path / "graphs"
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(root))
        cache = GraphCache()
        cache.store(medium_graph)
        cache.store(path_graph)

        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out

        assert main(["cache", "ls", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["entries"]) == 2

        assert main(["cache", "evict", "--max-entries", "1"]) == 0
        assert "evicted 1" in capsys.readouterr().out

        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cache.entries() == []

    def test_disabled_cache(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", "off")
        assert main(["cache", "ls"]) == 1
        assert "disabled" in capsys.readouterr().out
