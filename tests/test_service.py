"""The serving layer: schema migration, the `repro.api` facade (local
and HTTP), the daemon, the worker fleet, and the end-to-end
daemon + workers + kill + cancel drill asserting bit-identity with
serial `run_cells`."""

import http.client
import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import repro
import repro.api as api
from repro.cli import EXIT_USAGE, main
from repro.engine.cells import Cell, run_cells
from repro.engine.errors import UnknownAlgorithmError
import repro.service.daemon as daemon_mod
from repro.service.daemon import MAX_BODY_BYTES, build_server
from repro.service.worker import run_claimed_cell, worker_loop
from repro.store.db import STORE_SCHEMA_VERSION, RunStore

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

DATASET = "mouse_gene"  # 2500 vertices — milliseconds per cell


def _strip_wall(record):
    """A record's JSON document minus the wall-clock fields — the only
    legitimately non-deterministic bits (same convention as
    tests/test_store.py)."""
    doc = json.loads(record.to_json())
    for key in ("wall_time_s", "started_at", "duration_s"):
        doc.pop(key, None)
    (doc.get("provenance") or {}).pop("wall_time_s", None)
    return doc


def _canon(record) -> str:
    return json.dumps(_strip_wall(record), sort_keys=True)


def _register_n(store, n, **kwargs):
    fps = []
    for i in range(n):
        fp = f"cell:{i:040d}"
        store.register(fp, algorithm=kwargs.pop("algorithm", "ld_gpu"),
                       config={"dataset": DATASET}, **kwargs)
        fps.append(fp)
    return fps


# ------------------------------------------------------------------ #
# schema migration (v1 -> v2) backward compatibility
# ------------------------------------------------------------------ #

_V1_SCHEMA = """
CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE runs (
    fingerprint       TEXT PRIMARY KEY,
    algorithm         TEXT NOT NULL,
    dataset           TEXT,
    graph_fingerprint TEXT,
    config_json       TEXT NOT NULL,
    seed              INTEGER,
    record_schema     INTEGER NOT NULL,
    status            TEXT NOT NULL DEFAULT 'pending',
    worker            TEXT,
    lease_expires_at  REAL,
    heartbeat_at      REAL,
    attempts          INTEGER NOT NULL DEFAULT 0,
    record_json       TEXT,
    error_type        TEXT,
    error_message     TEXT,
    created_at        REAL NOT NULL,
    updated_at        REAL NOT NULL
);
INSERT INTO store_meta (key, value) VALUES ('schema', '1');
"""


def _make_v1_store(path, rows=()):
    conn = sqlite3.connect(str(path))
    conn.executescript(_V1_SCHEMA)
    for fp, status in rows:
        conn.execute(
            "INSERT INTO runs (fingerprint, algorithm, dataset, "
            "config_json, record_schema, status, created_at, "
            "updated_at, attempts) VALUES (?, 'ld_gpu', ?, ?, 3, ?, "
            "1.0, 1.0, 1)",
            (fp, DATASET, json.dumps({"dataset": DATASET}), status))
    conn.commit()
    conn.close()


class TestSchemaMigration:
    def test_v1_store_migrates_in_place(self, tmp_path):
        db = tmp_path / "v1.db"
        _make_v1_store(db, [("cell:" + "a" * 40, "done"),
                            ("cell:" + "b" * 40, "pending")])
        store = RunStore(db)
        rows = store.select()
        assert len(rows) == 2
        for r in rows:
            assert r.priority == 0
            assert r.client is None
            assert r.cancel_requested is False
        conn = sqlite3.connect(str(db))
        assert conn.execute(
            "SELECT value FROM store_meta WHERE key='schema'"
        ).fetchone()[0] == str(STORE_SCHEMA_VERSION)
        conn.close()
        # the migrated store is fully service-capable
        row = store.claim_next()
        assert row is not None and row.fingerprint.endswith("b" * 40)
        assert store.request_cancel("cell:" + "a" * 40) is False  # done

    def test_migration_fills_only_missing_columns(self, tmp_path):
        db = tmp_path / "v1partial.db"
        _make_v1_store(db, [("cell:" + "c" * 40, "pending")])
        conn = sqlite3.connect(str(db))
        conn.execute("ALTER TABLE runs ADD COLUMN priority INTEGER "
                     "NOT NULL DEFAULT 7")
        conn.commit()
        conn.close()
        store = RunStore(db)
        row = store.get("cell:" + "c" * 40)
        assert row.priority == 7  # pre-existing column untouched
        assert row.cancel_requested is False

    def test_newer_schema_refused(self, tmp_path):
        db = tmp_path / "future.db"
        _make_v1_store(db)
        conn = sqlite3.connect(str(db))
        conn.execute("UPDATE store_meta SET value='99' "
                     "WHERE key='schema'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="newer than supported"):
            RunStore(db).counts()


# ------------------------------------------------------------------ #
# store service primitives
# ------------------------------------------------------------------ #


class TestServicePrimitives:
    def test_claim_next_priority_then_fifo(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        store.register("cell:" + "0" * 40, algorithm="ld_gpu",
                       config={}, priority=0)
        store.register("cell:" + "1" * 40, algorithm="ld_gpu",
                       config={}, priority=5)
        store.register("cell:" + "2" * 40, algorithm="ld_gpu",
                       config={}, priority=5)
        order = [store.claim_next().fingerprint for _ in range(3)]
        # priority first, then oldest-first within a priority
        assert order == ["cell:" + "1" * 40, "cell:" + "2" * 40,
                         "cell:" + "0" * 40]
        assert store.claim_next() is None

    def test_claim_next_skips_cancelled(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        fp_a, fp_b = _register_n(store, 2)
        assert store.request_cancel(fp_a) is True
        row = store.claim_next()
        assert row.fingerprint == fp_b
        assert store.claim_next() is None
        assert store.get(fp_a).state == "cancelled"
        # a targeted claim still works: `store resume` deliberately
        # overrides the flag
        assert store.claim(fp_a) is not None

    def test_claim_next_reclaims_expired_lease(self, tmp_path):
        now = [1000.0]
        store = RunStore(tmp_path / "runs.db", lease_seconds=10.0,
                         clock=lambda: now[0], worker_id="w1")
        (fp,) = _register_n(store, 1)
        assert store.claim_next().fingerprint == fp
        assert store.claim_next() is None  # lease held
        now[0] += 11.0
        row = store.claim_next()
        assert row.fingerprint == fp
        assert row.attempts == 2
        assert store.stale_reclaims == 1

    def test_claim_next_algorithm_filter_and_errors(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        store.register("cell:" + "a" * 40, algorithm="ld_gpu",
                       config={})
        store.register("cell:" + "b" * 40, algorithm="suitor_seq",
                       config={})
        row = store.claim_next(algorithm="suitor_seq")
        assert row.algorithm == "suitor_seq"
        assert store.claim_next(algorithm="suitor_seq") is None
        assert store.claim_next().algorithm == "ld_gpu"

    def test_register_first_submission_wins(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        fp = "cell:" + "d" * 40
        store.register(fp, algorithm="ld_gpu", config={}, priority=4,
                       client="alice")
        store.register(fp, algorithm="ld_gpu", config={}, priority=9,
                       client="bob")
        row = store.get(fp)
        assert (row.priority, row.client) == (4, "alice")

    def test_release_clears_worker_and_heartbeat(self, tmp_path):
        store = RunStore(tmp_path / "runs.db", worker_id="w1")
        (fp,) = _register_n(store, 1)
        store.claim_next()
        store.heartbeat(fp)
        assert store.release(fp) is True
        row = store.get(fp)
        assert row.status == "pending"
        assert row.worker is None
        assert row.heartbeat_at is None
        assert row.lease_expires_at is None

    def test_reclaim_stale_clears_worker_and_heartbeat(self, tmp_path):
        now = [0.0]
        store = RunStore(tmp_path / "runs.db", lease_seconds=5.0,
                         clock=lambda: now[0], worker_id="dead")
        (fp,) = _register_n(store, 1)
        store.claim_next()
        store.heartbeat(fp)
        now[0] += 100.0
        assert store.reclaim_stale() == 1
        row = store.get(fp)
        assert (row.status, row.worker, row.heartbeat_at) == \
            ("pending", None, None)

    def test_meta_kv_roundtrip(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        assert store.meta_get("shm:x") is None
        store.meta_set("shm:x", "one")
        store.meta_set("shm:x", "two")  # upsert
        assert store.meta_get("shm:x") == "two"
        assert store.meta_delete("shm:x") is True
        assert store.meta_delete("shm:x") is False
        with pytest.raises(ValueError):
            store.meta_set("schema", "boom")


# ------------------------------------------------------------------ #
# the repro.api facade, local mode
# ------------------------------------------------------------------ #


class TestApiLocal:
    def test_submit_process_result_roundtrip(self, tmp_path):
        db = tmp_path / "runs.db"
        fp = api.submit("ld_gpu", DATASET, devices=2, seed=3,
                        priority=1, client="t", store=db)
        st = api.status(fp, store=db)
        assert (st.state, st.priority, st.client) == ("pending", 1, "t")
        assert not st.terminal
        assert api.result(fp, store=db) is None  # in flight
        assert api.process(store=db) == 1
        record = api.result(fp, store=db)
        assert record.ok
        # resubmission is idempotent and never clobbers the result
        assert api.submit("ld_gpu", DATASET, devices=2, seed=3,
                          store=db) == fp
        assert api.status(fp, store=db).state == "done"

    def test_worker_record_identical_to_run(self, tmp_path):
        db = tmp_path / "runs.db"
        fp = api.submit("ld_gpu", DATASET, devices=4, batches=2,
                        seed=11, store=db)
        api.process(store=db)
        fleet = api.result(fp, store=db)
        serial = api.run("ld_gpu", DATASET, devices=4, batches=2,
                         seed=11)
        assert _canon(fleet) == _canon(serial)

    def test_submit_validation(self, tmp_path):
        db = tmp_path / "runs.db"
        with pytest.raises(KeyError):
            api.submit("no_such_algo", DATASET, store=db)
        with pytest.raises(ValueError, match="unknown dataset"):
            api.submit("ld_gpu", "no_such_dataset", store=db)
        with pytest.raises(ValueError, match="graph source"):
            api.submit("ld_gpu", store=db)
        with pytest.raises(ValueError, match="not importable by workers"
                                             "|lambdas and closures"):
            api.submit("ld_gpu", builder=lambda: None, store=db)
        with pytest.raises(TypeError, match="pointing_engine"):
            api.submit("ld_seq", DATASET,
                       pointing_engine="segment", store=db)
        assert RunStore(db).counts()["pending"] == 0  # nothing landed

    def test_cancel_and_query(self, tmp_path):
        db = tmp_path / "runs.db"
        fp_run = api.submit("ld_gpu", DATASET, seed=1, store=db)
        fp_cancel = api.submit("ld_gpu", DATASET, seed=2, store=db,
                               client="c2")
        assert api.cancel(fp_cancel, store=db) is True
        assert api.process(store=db) == 1  # the cancelled one skipped
        with pytest.raises(api.JobCancelled):
            api.result(fp_cancel, store=db)
        states = {j.fingerprint: j.state for j in api.query(store=db)}
        assert states == {fp_run: "done", fp_cancel: "cancelled"}
        assert [j.fingerprint for j in
                api.query(state="cancelled", store=db)] == [fp_cancel]
        assert [j.fingerprint for j in
                api.query(client="c2", store=db)] == [fp_cancel]
        # cancelling a done job is a no-op
        assert api.cancel(fp_run, store=db) is False

    def test_status_unknown_job(self, tmp_path):
        with pytest.raises(api.JobNotFound):
            api.status("cell:" + "f" * 40, store=tmp_path / "runs.db")

    def test_result_wait_timeout(self, tmp_path):
        db = tmp_path / "runs.db"
        fp = api.submit("ld_gpu", DATASET, store=db)
        with pytest.raises(TimeoutError):
            api.result(fp, store=db, wait=True, timeout=0.2,
                       poll_s=0.05)


class TestInlineDrainShm:
    """`api.process` drains without publishing to shared memory; a
    segment a long-lived worker published is still attached."""

    def test_process_publishes_no_segment(self, tmp_path, monkeypatch):
        from repro.harness.shm import (
            SharedGraphRegistry,
            list_orphan_segments,
        )

        published = []
        monkeypatch.setattr(SharedGraphRegistry, "publish",
                            lambda self, *a, **kw: published.append(a))
        db = tmp_path / "runs.db"
        fps = [api.submit("ld_gpu", DATASET, devices=d, seed=14,
                          store=db) for d in (1, 2)]
        assert api.process(store=db) == 2
        assert all(api.result(fp, store=db).ok for fp in fps)
        assert published == []
        conn = sqlite3.connect(str(db))
        keys = [r[0] for r in conn.execute(
            "SELECT key FROM store_meta WHERE key LIKE 'shm:%'")]
        conn.close()
        assert keys == []
        assert list_orphan_segments() == []

    def test_process_attaches_published_segment(self, tmp_path):
        import dataclasses

        from repro.harness.datasets import load_dataset
        from repro.harness.shm import (
            SharedGraphRegistry,
            default_registry,
            shm_enabled,
        )

        if not shm_enabled():
            pytest.skip("shared-memory plane unavailable")
        db = tmp_path / "runs.db"
        fp = api.submit("ld_gpu", DATASET, devices=2, seed=15, store=db)
        store = RunStore(db)
        gfp = store.get(fp).graph_fingerprint
        owner = SharedGraphRegistry()  # stands in for a `repro worker`
        try:
            seg = owner.publish(load_dataset(DATASET), gfp)
            store.meta_set(f"shm:{gfp}",
                           json.dumps(dataclasses.asdict(seg)))
            attaches = default_registry().attaches
            assert api.process(store=db) == 1
            assert default_registry().attaches == attaches + 1
            # the attach-side handle is closed on return
            assert default_registry()._attached == {}
            # the published descriptor is the owner's to drop
            assert store.meta_get(f"shm:{gfp}") is not None
        finally:
            owner.unlink_all()
        assert _canon(api.result(fp, store=db)) == _canon(
            api.run("ld_gpu", DATASET, devices=2, seed=15))

    def test_process_reuses_the_store_it_opened(self, tmp_path,
                                                monkeypatch):
        opened = []
        real = sqlite3.connect

        def spy(*args, **kwargs):
            conn = real(*args, **kwargs)
            opened.append(conn)
            return conn

        db = tmp_path / "runs.db"
        api.submit("ld_gpu", DATASET, seed=16, store=db)
        monkeypatch.setattr(sqlite3, "connect", spy)
        assert api.process(store=db) == 1
        fp = api.submit("ld_gpu", DATASET, seed=17, store=db)
        assert api.process(store=db) == 1
        assert api.result(fp, store=db).ok
        assert opened == []  # every call ran on the submit's connection


class TestApiSurface:
    def test_api_exported_from_package_root(self):
        assert "api" in repro.__all__
        assert repro.api.submit is api.submit


#: Names an older build registered and this one does not.
RETIRED = ("auction", "local_max", "path_growing", "pettie_sanders",
           "two_thirds")


class TestRetiredAlgorithms:
    """A retired algorithm name is a typed error at every boundary."""

    @pytest.mark.parametrize("name", RETIRED)
    def test_api_run_and_submit_raise(self, name, tmp_path):
        db = tmp_path / "runs.db"
        with pytest.raises(UnknownAlgorithmError, match=name):
            api.run(name, DATASET, quality=True)
        with pytest.raises(UnknownAlgorithmError, match=name):
            api.submit(name, DATASET, quality=True, store=db)
        assert RunStore(db).counts()["pending"] == 0

    @pytest.mark.parametrize("command", ["run", "submit"])
    @pytest.mark.parametrize("name", RETIRED)
    def test_cli_exits_2(self, name, command, tmp_path, monkeypatch,
                         capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        with pytest.raises(SystemExit) as exc:
            main([command, "-a", name, "-d", DATASET, "--quality",
                  "--store", "runs.db"])
        assert exc.value.code == EXIT_USAGE
        assert name in capsys.readouterr().err

    def test_pending_row_completes_as_error(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        kept = api.submit("ld_seq", DATASET, quality=True, store=store)
        row = store.get(kept)
        old = [f"cell:{i:040d}" for i in range(len(RETIRED))]
        for fp, name in zip(old, RETIRED):
            # Claimed first: higher priority than the kept job.
            store.register(fp, algorithm=name, dataset=row.dataset,
                           config=dict(row.config, algorithm=name),
                           priority=1)
        first = store.claim_next()
        assert first.fingerprint == old[0]
        record = run_claimed_cell(store, first, publish=False)
        assert not record.ok
        assert record.error["type"] == "UnknownAlgorithmError"
        assert store.get(old[0]).status == "error"
        summary = worker_loop(store, idle_exit_s=0, poll_s=0.01,
                              publish=False)
        assert (summary.executed, summary.ok, summary.errors) \
            == (len(RETIRED), 1, len(RETIRED) - 1)
        assert store.counts() == {"pending": 0, "leased": 0, "done": 1,
                                  "error": len(RETIRED)}
        for fp, name in zip(old, RETIRED):
            assert store.get(fp).error_type == "UnknownAlgorithmError"
            assert name in store.get(fp).error_message
        assert api.result(kept, store=store).ok


# ------------------------------------------------------------------ #
# the daemon (in-thread, ephemeral port)
# ------------------------------------------------------------------ #


@pytest.fixture()
def daemon(tmp_path):
    db = tmp_path / "runs.db"
    RunStore(db).counts()  # create the database up front
    server = build_server(db, port=0, quota=2, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    yield url, db
    server.shutdown()
    server.server_close()


class TestDaemon:
    def test_http_submission_identical_to_local(self, daemon):
        url, db = daemon
        fp = api.submit("ld_gpu", DATASET, devices=2, seed=5,
                        store=url)
        # same job submitted locally lands on the same fingerprint
        assert api.submit("ld_gpu", DATASET, devices=2, seed=5,
                          store=db) == fp
        assert len(api.query(store=db)) == 1

    def test_lifecycle_over_http(self, daemon):
        url, db = daemon
        fp = api.submit("ld_gpu", DATASET, seed=9, client="h",
                        store=url)
        st = api.status(fp, store=url)
        assert (st.state, st.client) == ("pending", "h")
        assert api.result(fp, store=url) is None
        api.process(store=db)
        record = api.result(fp, store=url)
        assert record.ok
        local = api.result(fp, store=db)
        assert _canon(record) == _canon(local)
        jobs = api.query(state="done", store=url)
        assert [j.fingerprint for j in jobs] == [fp]

    def test_cancel_over_http(self, daemon):
        url, db = daemon
        fp = api.submit("ld_gpu", DATASET, seed=10, store=url)
        assert api.cancel(fp, store=url) is True
        with pytest.raises(api.JobCancelled):
            api.result(fp, store=url)
        assert api.status(fp, store=url).state == "cancelled"

    def test_unknown_job_404(self, daemon):
        url, _ = daemon
        with pytest.raises(api.JobNotFound):
            api.status("cell:" + "e" * 40, store=url)

    def test_invalid_submission_400(self, daemon):
        url, _ = daemon
        with pytest.raises(ValueError, match="unknown dataset"):
            api.submit("ld_gpu", "nope", store=url)
        with pytest.raises(ValueError, match="algorithm"):
            api.submit("nope", DATASET, store=url)

    def test_quota_429(self, daemon):
        url, _ = daemon  # quota=2
        api.submit("ld_gpu", DATASET, seed=1, client="q", store=url)
        fp2 = api.submit("ld_gpu", DATASET, seed=2, client="q",
                         store=url)
        with pytest.raises(api.QuotaExceeded):
            api.submit("ld_gpu", DATASET, seed=3, client="q",
                       store=url)
        # resubmitting an already-registered job passes the quota
        assert api.submit("ld_gpu", DATASET, seed=2, client="q",
                          store=url) == fp2
        # other clients are unaffected
        api.submit("ld_gpu", DATASET, seed=4, client="other",
                   store=url)

    def test_client_reset_writes_no_500(self, tmp_path, monkeypatch,
                                        capsys):
        sent = []

        def reset(self, method, route, query):
            raise ConnectionResetError("peer reset")

        monkeypatch.setattr(daemon_mod._Handler, "_route", reset)
        monkeypatch.setattr(
            daemon_mod._Handler, "_send",
            lambda self, code, payload, content_type=None:
                sent.append(code))
        server, _url = _start_daemon(tmp_path / "runs.db")
        try:
            with socket.create_connection(server.server_address[:2],
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                             b"Connection: close\r\n\r\n")
                # the handler finished once the server closes on us
                assert sock.recv(1024) == b""
        finally:
            _stop_daemon(server)
        assert sent == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("body", [b"<html>gone</html>", b"[1, 2]",
                                      b"\xff\xfe", b""])
    def test_404_with_odd_body_is_job_not_found(self, body):
        class NotFound(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802
                self.send_response(404)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), NotFound)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with pytest.raises(api.JobNotFound):
                api.status("cell:" + "e" * 40, store="http://127.0.0.1:"
                           f"{server.server_address[1]}")
        finally:
            server.shutdown()
            server.server_close()

    def test_metrics_and_healthz(self, daemon):
        url, _ = daemon
        from repro.telemetry import validate_prometheus_text

        api.submit("ld_gpu", DATASET, seed=6, store=url)
        with urllib.request.urlopen(f"{url}/healthz") as resp:
            doc = json.loads(resp.read())
        assert doc["ok"] is True
        with urllib.request.urlopen(f"{url}/metrics") as resp:
            assert "text/plain" in resp.headers["Content-Type"]
            text = resp.read().decode()
        assert validate_prometheus_text(text) > 0
        assert "repro_service_submissions_total 1" in text
        assert 'repro_service_jobs{state="pending"} 1' in text

    def test_keep_alive_requests_do_not_stall(self, daemon):
        """50 requests on one connection: with Nagle's algorithm on,
        each waits out the client's delayed ACK (~40 ms)."""
        url, _ = daemon
        host, port = url.rsplit("/", 1)[-1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            t0 = time.monotonic()
            for _ in range(50):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
                assert not resp.will_close
            elapsed = time.monotonic() - t0
        finally:
            conn.close()
        assert elapsed < 1.0, f"50 keep-alive requests took {elapsed:.2f}s"


def _start_daemon(db):
    server = build_server(db, port=0, quiet=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def _stop_daemon(server):
    server.shutdown()
    server.server_close()


class TestDaemonStorePool:
    def test_connections_bounded_and_closed(self, tmp_path, monkeypatch):
        opened = []
        real = sqlite3.connect

        def spy(*args, **kwargs):
            conn = real(*args, **kwargs)
            opened.append(conn)
            return conn

        db = tmp_path / "runs.db"
        RunStore(db).counts()
        monkeypatch.setattr(sqlite3, "connect", spy)
        server, url = _start_daemon(db)
        errors = []

        def client(seed):
            try:
                fp = api.submit("ld_gpu", DATASET, seed=seed, store=url)
                assert api.status(fp, store=url).state == "pending"
                assert api.result(fp, store=url) is None
                api.query(store=url)
                with urllib.request.urlopen(f"{url}/metrics") as resp:
                    resp.read()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        try:
            client(0)  # serial requests first
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(1, 13)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            _stop_daemon(server)
        assert errors == []
        assert 1 <= len(opened) <= daemon_mod.STORE_POOL_SIZE
        for conn in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")

    def test_keep_alive_clients_share_the_bounded_pool(self, tmp_path,
                                                       monkeypatch):
        """8 client threads, one keep-alive connection each, 10
        submit + status calls per thread."""
        opened, accepted = [], []
        real_connect = daemon_mod._PooledStore._connect
        real_accept = daemon_mod._Server.process_request

        def connect(self):
            if self._conn is None:
                opened.append(self)
            return real_connect(self)

        def accept(self, request, client_address):
            accepted.append(client_address)
            real_accept(self, request, client_address)

        monkeypatch.setattr(daemon_mod._PooledStore, "_connect", connect)
        monkeypatch.setattr(daemon_mod._Server, "process_request", accept)
        server, url = _start_daemon(tmp_path / "runs.db")
        done, errors = [], []

        def client(worker):
            try:
                for i in range(10):
                    fp = api.submit("ld_gpu", DATASET,
                                    seed=100 * worker + i, store=url)
                    assert api.status(fp, store=url).state == "pending"
                    done.append(fp)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(w,))
                       for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            _stop_daemon(server)
        assert errors == []
        assert len(set(done)) == 80
        assert len(accepted) == 8  # one connection per client thread
        assert 1 <= len(opened) <= daemon_mod.STORE_POOL_SIZE

    def test_stalled_bodies_hold_no_store(self, daemon):
        """More clients than the pool has stores send a POST's headers
        and stall the body; a status read still answers at once."""
        url, _ = daemon
        fp = api.submit("ld_gpu", DATASET, seed=19, store=url)
        host, port = url.rsplit("/", 1)[-1].split(":")
        stalled = []
        try:
            for _ in range(2 * daemon_mod.STORE_POOL_SIZE):
                sock = socket.create_connection((host, int(port)),
                                                timeout=10)
                stalled.append(sock)
                sock.sendall(f"POST /api/v1/jobs HTTP/1.1\r\n"
                             f"Host: {host}\r\n"
                             "Content-Length: 100\r\n\r\n{".encode())
            time.sleep(0.2)  # every stalled request is being read
            t0 = time.monotonic()
            assert api.status(fp, store=url).state == "pending"
            assert api.result(fp, store=url) is None
            assert time.monotonic() - t0 < 5
        finally:
            for sock in stalled:  # end each body; the daemon answers 400
                sock.shutdown(socket.SHUT_WR)
                while sock.recv(65536):
                    pass
                sock.close()

    def test_only_pooled_connections_cross_threads(self, tmp_path):
        db = tmp_path / "runs.db"
        plain = RunStore(db)
        pooled = daemon_mod._PooledStore(db)
        plain.counts()
        pooled.counts()
        errors = []

        def use(store):
            try:
                store.counts()
            except sqlite3.ProgrammingError as exc:
                errors.append((store, exc))

        for store in (plain, pooled):
            t = threading.Thread(target=use, args=(store,))
            t.start()
            t.join()
        assert [store for store, _ in errors] == [plain]

    def test_result_state_agrees_with_record(self, daemon, monkeypatch):
        """A job that completes while /result is being served is
        reported from one row: leased with no record, or done with
        one — never leased with a record."""
        url, db = daemon
        fp = api.submit("ld_gpu", DATASET, seed=17, store=url)
        assert RunStore(db).claim_next().fingerprint == fp
        record = api.run("ld_gpu", DATASET, seed=17)
        real_get = RunStore.get
        armed = [True]

        def get_then_complete(self, fingerprint):
            row = real_get(self, fingerprint)
            if armed and fingerprint == fp:
                armed.clear()
                with RunStore(db) as other:  # lands right after the read
                    other.complete(fp, record)
            return row

        monkeypatch.setattr(RunStore, "get", get_then_complete)
        docs = []
        for _ in range(2):
            with urllib.request.urlopen(
                    f"{url}/api/v1/jobs/{fp}/result") as resp:
                docs.append(json.loads(resp.read()))
        assert [d["state"] for d in docs] == ["leased", "done"]
        for doc in docs:
            assert (doc["state"] == "done") == (doc["record"] is not None)

    def test_http_result_bytes_equal_stored_record(self, daemon):
        url, db = daemon
        fp = api.submit("ld_gpu", DATASET, devices=4, batches=2,
                        seed=18, store=url)
        api.process(store=db)
        stored = RunStore(db).get(fp).record_json
        assert api.result(fp, store=url).to_json() == stored
        assert api.result(fp, store=db).to_json() == stored

    def test_restart_with_leased_job(self, tmp_path):
        """Failure drill: the daemon restarts while a job is leased."""
        db = tmp_path / "runs.db"
        RunStore(db).counts()
        server, url = _start_daemon(db)
        try:
            fp = api.submit("ld_gpu", DATASET, devices=2, seed=19,
                            store=url)
            doomed = RunStore(db, lease_seconds=0.5,
                              worker_id="doomed:1")
            assert doomed.claim_next().fingerprint == fp
            doomed.close()
        finally:
            _stop_daemon(server)
        server, url = _start_daemon(db)
        try:
            assert api.status(fp, store=url).state == "leased"
            assert api.result(fp, store=url) is None
            expires = RunStore(db).get(fp).lease_expires_at
            time.sleep(max(expires - time.time(), 0.0) + 0.05)
            assert api.process(store=db) == 1
            assert api.status(fp, store=url).state == "done"
            served = api.result(fp, store=url)
        finally:
            _stop_daemon(server)
        row = RunStore(db).get(fp)
        assert row.attempts == 2
        assert served.to_json() == row.record_json
        assert _canon(served) == _canon(
            api.run("ld_gpu", DATASET, devices=2, seed=19))


def _raw_submit(url: str, headers: str, body: bytes = b"") -> bytes:
    """POST a hand-built request; read until the daemon closes the
    connection (a kept-alive connection fails on the socket timeout)."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(f"POST /api/v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
                     f"{headers}\r\n".encode() + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


class TestDaemonBody:
    @pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
    def test_bad_content_length_400(self, daemon, length):
        url, _ = daemon
        resp = _raw_submit(url, f"Content-Length: {length}\r\n", b"{}")
        assert _status(resp) == 400
        assert b"Content-Length" in resp

    def test_oversized_body_413_unread(self, daemon):
        url, db = daemon
        # Declared but never sent: the daemon must answer without
        # waiting for the body.
        resp = _raw_submit(
            url, f"Content-Length: {MAX_BODY_BYTES + 1}\r\n")
        assert _status(resp) == 413
        assert api.query(store=db) == []

    def test_body_at_limit_is_read(self, daemon):
        url, _ = daemon
        head = b'{"algorithm": "nope", "pad": "'
        body = head + b"x" * (MAX_BODY_BYTES - len(head) - 2) + b'"}'
        assert len(body) == MAX_BODY_BYTES
        resp = _raw_submit(
            url, f"Content-Length: {len(body)}\r\n"
                 "Connection: close\r\n", body)
        assert _status(resp) == 400  # parsed, then rejected as a spec

    def test_stalled_body_408(self, daemon, monkeypatch):
        url, _ = daemon
        assert daemon_mod._Handler.timeout == daemon_mod.REQUEST_TIMEOUT_S
        monkeypatch.setattr(daemon_mod._Handler, "timeout", 0.3)
        t0 = time.monotonic()
        resp = _raw_submit(url, "Content-Length: 100\r\n", b"{")
        assert _status(resp) == 408
        assert time.monotonic() - t0 < 5


def _wait_child(pid, timeout=60.0):
    """A forked child's exit code; kills it on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("forked child hung")


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestConnectionReuse:
    """Each thread keeps one daemon connection and one store
    connection; these are the cases where the kept one must go."""

    def test_daemon_restart_between_calls(self, tmp_path):
        db = tmp_path / "runs.db"
        RunStore(db).counts()
        server, url = _start_daemon(db)
        port = server.server_address[1]
        try:
            fp = api.submit("ld_gpu", DATASET, seed=20, store=url)
            assert api.status(fp, store=url).state == "pending"
        finally:
            _stop_daemon(server)
        server = build_server(db, port=port, quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            # the kept connection died with the old daemon: re-sent once
            assert api.status(fp, store=url).state == "pending"
        finally:
            _stop_daemon(server)

    def test_server_close_ends_kept_connections(self, tmp_path):
        server, url = _start_daemon(tmp_path / "runs.db")
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            _stop_daemon(server)
            assert conn.sock.recv(1) == b""  # no handler outlives it
        finally:
            conn.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_opens_its_own_connections(self, tmp_path,
                                                    monkeypatch):
        db = tmp_path / "runs.db"
        RunStore(db).counts()
        peers = []
        real_dispatch = daemon_mod._Handler._dispatch

        def dispatch(self, method):
            peers.append(self.client_address[1])
            real_dispatch(self, method)

        monkeypatch.setattr(daemon_mod._Handler, "_dispatch", dispatch)
        server, url = _start_daemon(db)
        try:
            fp = api.submit("ld_gpu", DATASET, seed=21, store=url)
            assert api.process(store=db) == 1
            assert api.status(fp, store=url).state == "done"
            fp2 = api.submit("ld_gpu", DATASET, seed=22, store=url)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    claimed_by = []
                    real_claim = RunStore.claim_next

                    def claim_next(store, *args, **kwargs):
                        claimed_by.append(store.worker_id)
                        return real_claim(store, *args, **kwargs)

                    RunStore.claim_next = claim_next
                    me = f":{os.getpid()}"
                    if (api.status(fp, store=url).state == "done"
                            and api.process(store=db) == 1
                            and claimed_by
                            and all(w.endswith(me) for w in claimed_by)):
                        code = 0
                finally:
                    os._exit(code)
            assert _wait_child(pid) == 0
            # the parent's kept connections still work
            assert api.status(fp2, store=url).state == "done"
            assert api.process(store=db) == 0
        finally:
            _stop_daemon(server)
        parent, child = peers[0], peers[3]
        assert child != parent
        assert peers == [parent] * 3 + [child, parent]

    @pytest.mark.skipif(not (hasattr(os, "fork")
                             and os.path.exists("/proc/locks")),
                        reason="needs fork and /proc/locks")
    def test_forked_pool_workers_lock_the_store(self, tmp_path,
                                                monkeypatch):
        """A fork pool started while this process holds a connection to
        the same store, kept by an api call, the caller's own RunStore,
        or one opened by another thread: each worker's store connection
        must hold its own file lock."""
        log = tmp_path / "locks.txt"
        real_complete = RunStore.complete

        def complete(self, fingerprint, record):
            real_complete(self, fingerprint, record)
            pid = str(os.getpid())
            inode = f":{os.stat(self.path).st_ino}"
            with open("/proc/locks") as f:
                held = [p[3] for p in map(str.split, f)
                        if "->" not in p and p[4] == pid
                        and p[5].endswith(inode)]
            with open(log, "a") as f:
                f.write(f"{self.path.parent.name} {held}\n")

        monkeypatch.setattr(RunStore, "complete", complete)
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "fork")
        cells = [Cell("ld_gpu", dataset=DATASET,
                      config={"num_devices": n}) for n in (1, 2)]
        kept = tmp_path / "api" / "runs.db"
        api.query(store=kept)  # this thread now keeps a store on it
        run_cells(cells, parallel=2, store=RunStore(kept))
        own = RunStore(tmp_path / "own" / "runs.db")
        own.counts()  # the caller's own store is now connected
        run_cells(cells, parallel=2, store=own)
        # connected by a thread that a forked child does not have
        other = RunStore(tmp_path / "thread" / "runs.db")
        opener = threading.Thread(target=other.counts)
        opener.start()
        opener.join(timeout=60)
        assert not opener.is_alive()
        run_cells(cells, parallel=2, store=other)
        assert log.read_text().splitlines() == \
            ["api ['READ']"] * 2 + ["own ['READ']"] * 2 + \
            ["thread ['READ']"] * 2

    def test_recreated_store_file_is_reopened(self, tmp_path):
        db = tmp_path / "runs.db"
        api.submit("ld_gpu", DATASET, seed=23, store=db)
        assert api.process(store=db) == 1
        for suffix in ("", "-wal", "-shm"):
            os.remove(f"{db}{suffix}")
        with RunStore(db) as other:
            fp = api.submit("ld_gpu", DATASET, seed=24, store=other)
        assert api.process(store=db) == 1
        assert api.result(fp, store=db).ok

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_distinct_stores_do_not_grow_open_files(self, tmp_path):
        def drain(i):
            db = tmp_path / f"s{i}" / "runs.db"
            api.submit("ld_gpu", DATASET, seed=25, store=db)
            assert api.process(store=db) == 1

        drain(0)
        before = _open_fds()
        for i in range(1, 21):
            drain(i)
        assert _open_fds() <= before

    def test_idle_cached_store_holds_no_read_transaction(self, tmp_path):
        db = tmp_path / "runs.db"
        fp = api.submit("ld_gpu", DATASET, seed=26, store=db)
        assert api.process(store=db) == 1
        assert api.result(fp, store=db).ok
        conn = sqlite3.connect(str(db))
        try:
            busy, _, _ = conn.execute(
                "PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        finally:
            conn.close()
        assert busy == 0


# ------------------------------------------------------------------ #
# the worker loop
# ------------------------------------------------------------------ #


class TestWorkerLoop:
    def test_drains_priority_first_and_matches_serial(self, tmp_path):
        db = tmp_path / "runs.db"
        specs = [dict(devices=d, seed=s) for d, s in
                 [(1, 1), (2, 1), (4, 2), (2, 3)]]
        fps = [api.submit("ld_gpu", DATASET, **spec, priority=i,
                          store=db)
               for i, spec in enumerate(specs)]
        summary = worker_loop(RunStore(db), idle_exit_s=0.0,
                              poll_s=0.01)
        assert summary.executed == 4
        assert summary.ok == 4
        # highest priority (last submitted) claimed first
        assert summary.fingerprints[0] == fps[-1]
        for fp, spec in zip(fps, specs):
            fleet = api.result(fp, store=db)
            serial = api.run("ld_gpu", DATASET, **spec)
            assert _canon(fleet) == _canon(serial)

    def test_unbuildable_cell_completes_as_error(self, tmp_path):
        db = tmp_path / "runs.db"
        store = RunStore(db)
        fp = "cell:" + "9" * 40
        store.register(fp, algorithm="ld_gpu", config={"seed": 1})
        summary = worker_loop(store, idle_exit_s=0.0, poll_s=0.01)
        assert summary.executed == 1
        assert summary.errors == 1
        assert summary.unbuildable == 1
        row = store.get(fp)
        assert row.status == "error"
        assert row.error_type == "ValueError"
        assert "not resumable" in row.error_message

    def test_cancelled_cell_never_executes(self, tmp_path):
        db = tmp_path / "runs.db"
        fp = api.submit("ld_gpu", DATASET, seed=4, store=db)
        api.cancel(fp, store=db)
        summary = worker_loop(RunStore(db), idle_exit_s=0.0,
                              poll_s=0.01)
        assert summary.executed == 0
        assert api.status(fp, store=db).state == "cancelled"

    def test_cancel_after_claim_releases_the_lease(self, tmp_path):
        db = tmp_path / "runs.db"
        fp = api.submit("ld_gpu", DATASET, seed=27, store=db)
        store = RunStore(db)
        real_claim = store.claim_next

        def claim_then_cancel(*args, **kwargs):
            row = real_claim(*args, **kwargs)
            if row is not None:
                store.request_cancel(row.fingerprint)
            return row

        store.claim_next = claim_then_cancel
        summary = worker_loop(store, idle_exit_s=0.0, poll_s=0.01)
        assert (summary.executed, summary.cancelled) == (0, 1)
        assert api.status(fp, store=db).state == "cancelled"
        row = store.get(fp)
        assert (row.status, row.worker, row.lease_expires_at) == (
            "pending", None, None)
        assert store.counts()["leased"] == 0

    def test_shm_metadata_cleaned_up(self, tmp_path):
        from repro.harness.shm import list_orphan_segments, shm_enabled

        if not shm_enabled():
            pytest.skip("shared-memory plane unavailable")
        db = tmp_path / "runs.db"
        api.submit("ld_gpu", DATASET, seed=8, store=db)
        store = RunStore(db)
        worker_loop(store, idle_exit_s=0.0, poll_s=0.01)
        conn = sqlite3.connect(str(db))
        keys = [r[0] for r in conn.execute(
            "SELECT key FROM store_meta WHERE key LIKE 'shm:%'")]
        conn.close()
        assert keys == []
        assert list_orphan_segments() == []


# ------------------------------------------------------------------ #
# CLI verb surface (exit codes 0/1/2, flag rejection)
# ------------------------------------------------------------------ #


class TestRetiredPointingEngine:
    """No surface selects a pointing engine: the CLI, the daemon and
    the api reject the field, and ld_seq/ld_gpu take no ``engine=``."""

    def test_cli_flag_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        for argv in (["run", "-a", "ld_seq", "-d", DATASET,
                      "--pointing-engine", "segment"],
                     ["analysis", "query", "--store",
                      str(tmp_path / "runs.db"),
                      "--pointing-engine", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--pointing-engine" in capsys.readouterr().err

    def test_daemon_field_400(self, daemon):
        url, db = daemon
        body = json.dumps({"algorithm": "ld_seq", "dataset": DATASET,
                           "pointing_engine": "segment"}).encode()
        resp = _raw_submit(url, f"Content-Length: {len(body)}\r\n"
                                "Connection: close\r\n", body)
        assert _status(resp) == 400
        assert b"pointing_engine" in resp
        assert api.query(store=db) == []

    def test_api_keyword_is_typeerror(self, tmp_path):
        db = tmp_path / "runs.db"
        for verb in (api.submit, api.run):
            with pytest.raises(TypeError, match="pointing_engine"):
                verb("ld_seq", DATASET, pointing_engine="segment",
                     store=db)
        with pytest.raises(TypeError, match="pointing_engine"):
            api.sweep(DATASET, pointing_engine="segment")


class TestCliServiceVerbs:
    def test_submit_rejects_metrics_out(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["submit", "-a", "ld_gpu", "-d", DATASET,
                  "--metrics-out", "m.prom",
                  "--store", str(tmp_path / "runs.db")])
        assert exc.value.code == 2

    def test_serve_and_worker_reject_daemon_url(self, capsys):
        from repro.cli import main

        for verb in ("serve", "worker"):
            with pytest.raises(SystemExit) as exc:
                main([verb, "--store", "http://127.0.0.1:1/"])
            assert exc.value.code == 2

    def test_submit_worker_job_flow(self, tmp_path, capsys):
        from repro.cli import EXIT_FAILURE, EXIT_OK, main

        db = str(tmp_path / "runs.db")
        assert main(["submit", "-a", "ld_gpu", "-d", DATASET, "--seed",
                     "5", "--json", "--store", db]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "pending"
        fp = doc["fingerprint"]
        assert main(["worker", "--store", db, "--idle-exit", "0",
                     "--poll", "0.01", "--json"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["executed"] == 1
        assert main(["job", "status", fp, "--store", db,
                     "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["state"] == "done"
        assert main(["job", "result", fp, "--store", db,
                     "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"
        # cancelling a finished job reports failure (exit 1)
        assert main(["job", "cancel", fp,
                     "--store", db]) == EXIT_FAILURE

    def test_coreset_job_one_fingerprint_everywhere(self, tmp_path,
                                                    capsys):
        # The coordinator's dataset ref is part of its cell config, so
        # the CLI, api.run and api.submit (path and HTTP) must all
        # register the one row the CLI run completed.
        from repro.cli import main

        db = tmp_path / "runs.db"
        assert main(["run", "-a", "coreset_greedy", "-d", DATASET,
                     "--quality", "--store", str(db), "--json"]) == 0
        capsys.readouterr()
        [job] = api.query(store=db)
        fp = job.fingerprint
        api.run("coreset_greedy", DATASET, quality=True, store=db)
        assert api.submit("coreset_greedy", DATASET, quality=True,
                          store=db) == fp
        server, url = _start_daemon(db)
        try:
            assert api.submit("coreset_greedy", DATASET, quality=True,
                              store=url) == fp
        finally:
            _stop_daemon(server)
        assert [(j.fingerprint, j.state) for j in api.query(store=db)] \
            == [(fp, "done")]

    def test_job_unknown_fingerprint_exit_1(self, tmp_path, capsys):
        from repro.cli import EXIT_FAILURE, main

        RunStore(tmp_path / "runs.db").counts()
        assert main(["job", "status", "cell:" + "0" * 40, "--store",
                     str(tmp_path / "runs.db")]) == EXIT_FAILURE


# ------------------------------------------------------------------ #
# the end-to-end drill: daemon + 2 worker processes + kill + cancel
# ------------------------------------------------------------------ #

_DOOMED_WORKER = """
import sys
from repro.store.db import RunStore
store = RunStore(sys.argv[1], lease_seconds=1.0, worker_id="doomed:1")
row = store.claim_next()
print(row.fingerprint, flush=True)
import time; time.sleep(120)
"""


class TestEndToEndService:
    def test_fleet_drains_grid_bit_identical(self, tmp_path):
        db = tmp_path / "runs.db"
        RunStore(db).counts()
        server = build_server(db, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + \
            env.get("PYTHONPATH", "")

        try:
            # 20 cells, mixed priorities, submitted over HTTP.
            specs = []
            for i, (devices, batches) in enumerate(
                    [(d, b) for d in (1, 2, 4, 8)
                     for b in (None, 2, 3, 4, 5)]):
                specs.append(dict(devices=devices, batches=batches,
                                  seed=100 + i))
            fps = [api.submit("ld_gpu", DATASET, **spec,
                              priority=i % 3,
                              client=f"client-{i % 2}", store=url)
                   for i, spec in enumerate(specs)]
            assert len(set(fps)) == 20
            # plus one low-priority victim for the cancellation
            fp_cancel = api.submit("ld_gpu", DATASET, devices=2,
                                   seed=999, priority=-50, store=url)

            # a worker claims a cell and dies without releasing it
            doomed = subprocess.Popen(
                [sys.executable, "-c", _DOOMED_WORKER, str(db)],
                stdout=subprocess.PIPE, env=env, text=True)
            fp_doomed = doomed.stdout.readline().strip()
            assert fp_doomed in fps
            os.kill(doomed.pid, signal.SIGKILL)
            doomed.wait()
            assert RunStore(db).get(fp_doomed).status == "leased"

            # two independent worker processes drain the store
            cmd = [sys.executable, "-m", "repro.cli", "worker",
                   "--store", str(db), "--idle-exit", "3",
                   "--poll", "0.05", "--json"]
            workers = [subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                        env=env, text=True)
                       for _ in range(2)]
            # the cancellation lands while the fleet drains (workers
            # spend their first ~second importing; the victim sits at
            # the very back of the priority queue)
            assert api.cancel(fp_cancel, store=url) is True

            summaries = []
            for w in workers:
                out, _ = w.communicate(timeout=120)
                assert w.returncode == 0, out
                summaries.append(json.loads(out))
        finally:
            server.shutdown()
            server.server_close()

        # every worker did real work; together they ran all 20 cells
        executed = [s["executed"] for s in summaries]
        assert all(n >= 1 for n in executed)
        assert sum(executed) == 20
        # the killed worker's lease was reclaimed, not lost
        assert sum(s["stale_reclaims"] for s in summaries) == 1
        doomed_row = RunStore(db).get(fp_doomed)
        assert doomed_row.status == "done"
        assert doomed_row.attempts == 2

        # lifecycle accounting: 20 done, the victim cancelled, no
        # leaked leases
        store = RunStore(db)
        counts = store.counts()
        assert counts["done"] == 20
        assert counts["leased"] == 0
        assert counts["error"] == 0
        assert store.get(fp_cancel).state == "cancelled"
        from repro.harness.shm import list_orphan_segments

        assert list_orphan_segments() == []

        # every fleet record is bit-identical to the same cell run
        # through serial run_cells in this process
        from repro.api import _build_cell

        for fp, spec in zip(fps, specs):
            fleet = api.result(fp, store=db)
            assert fleet is not None and fleet.ok
            mc, _g = _build_cell("ld_gpu", DATASET, **spec)
            serial = run_cells([mc.cell])[0]
            assert _canon(fleet) == _canon(serial)
