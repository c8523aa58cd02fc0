"""``repro serve`` — the matching-as-a-service HTTP daemon.

A thin JSON front over the shared :class:`~repro.store.db.RunStore`:
clients submit jobs and read status/results; ``repro worker``
processes (attached to the same database file, not to the daemon) do
the matching.  The daemon itself never executes a cell, so it stays
responsive under heavy submission traffic and survives worker crashes
untouched — the FuzzBench shape from the ROADMAP.

Endpoints (all JSON)::

    POST /api/v1/jobs                submit  → {"fingerprint", "state"}
    GET  /api/v1/jobs                query   → {"jobs": [...]}
    GET  /api/v1/jobs/<fp>           status  → JobStatus document
    GET  /api/v1/jobs/<fp>/result    result  → {"state", "record"|null}
    POST /api/v1/jobs/<fp>/cancel    cancel  → {"cancelled": bool}
    GET  /metrics                    Prometheus text exposition
    GET  /healthz                    liveness → {"ok": true, ...}

Handlers call the very same :mod:`repro.api` local-backend functions
the in-process path uses, so a job submitted over HTTP is registered
byte-for-byte as one submitted with ``store=path`` — that equivalence
is what lets `repro.api` treat a daemon URL and a database path as
interchangeable ``store=`` values.

Error contract (mirrored by :class:`repro.api._HttpBackend`):
``404`` unknown fingerprint, ``409`` cancelled job's result, ``429``
per-client pending quota exceeded, ``400`` invalid submission
(unknown algorithm/dataset/platform, inapplicable options) or a
negative or non-integer ``Content-Length``, ``413`` a body over
:data:`MAX_BODY_BYTES` (refused unread), ``408`` a request that
stalls for :data:`REQUEST_TIMEOUT_S`, ``500`` anything else.  Bodies
carry ``{"error": "..."}``; a 400 for the length, 408 or 413 also
closes the connection and says so with ``Connection: close``.

Connections: the daemon speaks HTTP/1.1 keep-alive, so a client may
send any number of requests over one connection (the
:mod:`repro.api` client keeps one per thread).  It sets
``TCP_NODELAY``: with Nagle's algorithm on, the response's second
segment waits for the client's delayed ACK, about 40 ms per request
on a kept connection.  :meth:`_Server.server_close` also closes every
open client connection, so no handler outlives the server.

Threading: :class:`ThreadingHTTPServer` runs one handler thread per
client connection, for as long as the connection stays open (an idle
one is dropped after :data:`REQUEST_TIMEOUT_S`).  A request borrows
one :class:`RunStore` from a pool of at
most :data:`STORE_POOL_SIZE` for its SQL calls only: the body is read
and the cell built before the borrow, and the response is written
after the return, so a client that stalls its body or its reads holds
no store.  A borrower waits only while every store runs SQL.  Each
pooled connection is used by one thread at a time, and
:meth:`_Server.server_close` closes them all.  The metrics registry
*is* shared — counter children take a lock-free ``+=`` on floats,
which CPython keeps atomic enough for scrape-grade accuracy — and
every handler activates it with
:func:`~repro.telemetry.record_into` so store-level counters
(hits/claims/cancels) emitted during handling land on ``/metrics``.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time
import urllib.parse
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator

from repro.store.db import RunStore
from repro.telemetry import MetricsRegistry, record_into, to_prometheus

__all__ = ["ServiceState", "build_server", "serve",
           "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787

#: Counter names exported by the daemon itself (the store-level
#: ``repro_store_*`` counters ride along via the active registry).
REQUESTS_COUNTER = "repro_service_requests_total"
SUBMITS_COUNTER = "repro_service_submissions_total"
REJECTS_COUNTER = "repro_service_rejections_total"
JOBS_GAUGE = "repro_service_jobs"

#: Largest request body the daemon reads; a longer one is refused
#: with 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20
#: Seconds a connection may stall mid-request before it is dropped.
REQUEST_TIMEOUT_S = 30.0
#: Most stores (one SQLite connection each) the daemon keeps open.
STORE_POOL_SIZE = 4

_JSON = "application/json"


class _BodyTooLarge(ValueError):
    """The declared request body exceeds :data:`MAX_BODY_BYTES`."""


class _PooledStore(RunStore):
    """A store whose connection moves between handler threads, one
    holder at a time."""

    _thread_bound = False


class _StorePool:
    """:data:`STORE_POOL_SIZE` stores, each lent to one handler thread
    at a time; a store connects on first use."""

    def __init__(self, path: Any, lease_seconds: float | None) -> None:
        # LIFO: serial traffic keeps reusing the one warm connection.
        self._idle: queue.LifoQueue = queue.LifoQueue()
        for _ in range(STORE_POOL_SIZE):
            self._idle.put(_PooledStore(path, lease_seconds=lease_seconds))
        self._lock = threading.Lock()
        self._closed = False

    @contextmanager
    def borrow(self) -> Iterator[RunStore]:
        store = self._idle.get()
        try:
            yield store
        finally:
            with self._lock:
                if self._closed:
                    store.close()
                self._idle.put(store)

    def close(self) -> None:
        """Close every idle connection now, and each lent one when it
        comes back."""
        with self._lock:
            self._closed = True
            idle = []
            try:
                while True:
                    idle.append(self._idle.get_nowait())
            except queue.Empty:
                pass
            for store in idle:
                store.close()
                self._idle.put(store)


class ServiceState:
    """Everything the handler threads share: the store pool, the
    per-client pending quota, and the daemon-lifetime metrics
    registry."""

    def __init__(self, store_path: Any, *,
                 quota: int | None = None,
                 lease_seconds: float | None = None) -> None:
        from pathlib import Path

        self.store_path = Path(store_path)
        self.quota = quota
        self.lease_seconds = lease_seconds
        self.registry = MetricsRegistry()
        self.started_at = time.time()
        self.stores = _StorePool(self.store_path, lease_seconds)

    # ---------------------------------------------------------- #

    def submit(self, body: dict[str, Any]) -> dict[str, Any]:
        """Validate, quota-check and register one submission.

        Same construction path as :meth:`repro.api._LocalBackend.
        submit`, split around the fingerprint so the quota check can
        let idempotent resubmissions of an already-registered job
        through even for clients at their limit.  The cell is built
        before a store is borrowed.
        """
        from repro.api import QuotaExceeded, _build_cell
        from repro.store.fingerprint import fingerprint_for

        spec = dict(body)
        priority = int(spec.pop("priority", 0) or 0)
        client = spec.pop("client", None)
        algorithm = spec.pop("algorithm", None)
        if not algorithm:
            raise ValueError("submission needs an 'algorithm'")
        allowed = {"dataset", "builder", "quality", "platform",
                   "devices", "batches", "seed", "overrides", "label",
                   "replicate"}
        unknown = set(spec) - allowed
        if unknown:
            raise ValueError(
                f"unknown submission field(s): {', '.join(sorted(unknown))}")
        kwargs = {k: v for k, v in spec.items() if v is not None}
        dataset = kwargs.pop("dataset", None)
        mc, g = _build_cell(algorithm, dataset, **kwargs)
        fp, config, gfp = fingerprint_for(mc.cell, mc.ctx, g)
        with self.stores.borrow() as store:
            if self.quota is not None and store.get(fp) is None:
                backlog = store.count(status=("pending", "leased"),
                                      client=client, cancel_requested=False)
                if backlog >= self.quota:
                    self.registry.counter(
                        REJECTS_COUNTER,
                        "Submissions refused by the daemon.",
                        reason="quota").inc()
                    raise QuotaExceeded(
                        f"client {client!r} has {backlog} unfinished "
                        f"jobs (quota {self.quota}); wait or cancel some")
            store.register(
                fp, algorithm=mc.cell.algorithm_name, config=config,
                seed=mc.ctx.seed, graph_fingerprint=gfp,
                dataset=mc.cell.dataset or mc.ctx.dataset,
                priority=priority, client=client)
            row = store.get(fp)
        self.registry.counter(
            SUBMITS_COUNTER, "Jobs accepted over HTTP.").inc()
        return {"fingerprint": fp,
                "state": row.state if row is not None else "pending"}

    def metrics_text(self, store: RunStore) -> str:
        """Prometheus exposition: daemon counters + live queue gauges."""
        counts = store.counts()
        cancelled = store.count(status=("pending", "error"),
                                cancel_requested=True)
        for state, n in counts.items():
            self.registry.gauge(
                JOBS_GAUGE, "Jobs per lifecycle state.",
                state=state).set(float(n))
        self.registry.gauge(JOBS_GAUGE, "Jobs per lifecycle state.",
                            state="cancelled").set(float(cancelled))
        self.registry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the daemon started.").set(
                time.time() - self.started_at)
        return to_prometheus(self.registry.snapshot())


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    # Socket timeout and TCP_NODELAY, set by ``StreamRequestHandler.setup``.
    timeout = REQUEST_TIMEOUT_S
    disable_nagle_algorithm = True

    # ------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------ #

    def log_message(self, fmt: str, *args: Any) -> None:
        if not self.server.quiet:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send(self, code: int, payload: Any,
              content_type: str = _JSON) -> None:
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode())
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def _body(self) -> dict[str, Any]:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length < 0:
                raise ValueError(f"invalid Content-Length {declared!r}")
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        doc = json.loads(raw)
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _dispatch(self, method: str) -> None:
        from repro.api import (
            JobCancelled,
            JobError,
            JobNotFound,
            QuotaExceeded,
        )

        state = self.server.state
        parsed = urllib.parse.urlsplit(self.path)
        route = parsed.path.rstrip("/") or "/"
        state.registry.counter(
            REQUESTS_COUNTER, "HTTP requests handled.",
            method=method).inc()
        try:
            with record_into(state.registry):
                self._route(method, route, parsed.query)
        except JobNotFound as exc:
            self._error(404, f"unknown job {exc.args[0]!s}")
        except JobCancelled as exc:
            self._error(409, f"job {exc.args[0]!s} was cancelled")
        except QuotaExceeded as exc:
            self._error(429, str(exc))
        except _BodyTooLarge as exc:
            self._error(413, str(exc))
        except TimeoutError:
            self.close_connection = True
            self._error(408, "request timed out")
        except (ValueError, KeyError, TypeError, JobError) as exc:
            self._error(400, str(exc) or type(exc).__name__)
        except ConnectionError:  # client reset or went away mid-response
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------ #

    def _route(self, method: str, route: str, query: str) -> None:
        state = self.server.state
        if method == "GET" and route == "/healthz":
            self._send(200, {"ok": True, "store": str(state.store_path),
                             "uptime_s": time.time() - state.started_at})
            return
        if method == "POST" and route == "/api/v1/jobs":
            self._send(201, state.submit(self._body()))
            return
        with state.stores.borrow() as store:
            code, payload, content_type = self._answer(
                store, method, route, query)
        self._send(code, payload, content_type)

    def _answer(self, store: RunStore, method: str, route: str,
                query: str) -> tuple[int, Any, str]:
        """``(code, payload, content type)`` of a route that needs
        only the store; the caller writes it once the store is back."""
        from repro.api import JobNotFound, _LocalBackend

        backend = _LocalBackend(store)
        if method == "GET" and route == "/metrics":
            return (200, self.server.state.metrics_text(store).encode(),
                    "text/plain; version=0.0.4")
        if method == "GET" and route == "/api/v1/jobs":
            params = urllib.parse.parse_qs(query)

            def many(key: str) -> list[str] | None:
                return params.get(key) or None

            jobs = backend.query(
                algorithm=many("algorithm"), dataset=many("dataset"),
                state=many("state"), client=many("client"))
            return 200, {"jobs": [j.to_dict() for j in jobs]}, _JSON
        if route.startswith("/api/v1/jobs/"):
            rest = route[len("/api/v1/jobs/"):]
            parts = rest.split("/")
            fp = parts[0]
            tail = "/".join(parts[1:])
            if method == "GET" and not tail:
                return 200, backend.status(fp).to_dict(), _JSON
            if method == "GET" and tail == "result":
                # One read: the state and the record come from the same
                # row, and the stored record text is embedded as is.
                job_state, text = backend.result_json(fp)
                head = json.dumps({"fingerprint": fp, "state": job_state})
                return (200, (f'{head[:-1]}, "record": '
                              f'{text or "null"}}}').encode(), _JSON)
            if method == "POST" and tail == "cancel":
                return 200, {"cancelled": backend.cancel(fp)}, _JSON
        raise JobNotFound(f"no route {method} {route}")

    # ------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], state: ServiceState,
                 quiet: bool = False) -> None:
        self.state = state
        self.quiet = quiet
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening, end every open client connection (a kept
        one would otherwise still be served by this stopped server),
        and close the store pool."""
        super().server_close()
        with self._open_lock:
            conns = list(self._open)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass
        self.state.stores.close()


def build_server(store_path: Any, *,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 quota: int | None = None,
                 lease_seconds: float | None = None,
                 quiet: bool = False) -> _Server:
    """A ready-to-run (not yet serving) daemon — the test seam.

    ``port=0`` binds an ephemeral port; read it back from
    ``server.server_address[1]``.
    """
    state = ServiceState(store_path, quota=quota,
                         lease_seconds=lease_seconds)
    return _Server((host, port), state, quiet=quiet)


def serve(store_path: Any, *,
          host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
          quota: int | None = None,
          lease_seconds: float | None = None,
          quiet: bool = False,
          ready: Any = None) -> None:
    """Run the daemon until interrupted (the ``repro serve`` verb).

    ``ready``, when given, is a callable invoked with the bound
    ``(host, port)`` once the socket is listening.
    """
    server = build_server(store_path, host=host, port=port,
                          quota=quota, lease_seconds=lease_seconds,
                          quiet=quiet)
    if ready is not None:
        ready(server.server_address[0], server.server_address[1])
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
