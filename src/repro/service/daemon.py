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
closes the connection.

Threading: :class:`ThreadingHTTPServer` handles each request on its
own thread, and SQLite connections are not shareable across threads,
so the daemon opens one :class:`RunStore` per handler thread
(thread-local).  The metrics registry *is* shared — counter children
take a lock-free ``+=`` on floats, which CPython keeps atomic enough
for scrape-grade accuracy — and every handler activates it with
:func:`~repro.telemetry.record_into` so store-level counters
(hits/claims/cancels) emitted during handling land on ``/metrics``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from repro.telemetry import MetricsRegistry, record_into, to_prometheus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.db import RunStore

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


class _BodyTooLarge(ValueError):
    """The declared request body exceeds :data:`MAX_BODY_BYTES`."""


class ServiceState:
    """Everything the handler threads share: the store path (each
    thread opens its own connection), the per-client pending quota,
    and the daemon-lifetime metrics registry."""

    def __init__(self, store_path: Any, *,
                 quota: int | None = None,
                 lease_seconds: float | None = None) -> None:
        from pathlib import Path

        self.store_path = Path(store_path)
        self.quota = quota
        self.lease_seconds = lease_seconds
        self.registry = MetricsRegistry()
        self.started_at = time.time()
        self._local = threading.local()

    def store(self) -> "RunStore":
        """This handler thread's own RunStore connection."""
        store = getattr(self._local, "store", None)
        if store is None:
            from repro.store.db import RunStore

            store = RunStore(self.store_path,
                             lease_seconds=self.lease_seconds)
            self._local.store = store
        return store

    # ---------------------------------------------------------- #

    def submit(self, body: dict[str, Any]) -> dict[str, Any]:
        """Validate, quota-check and register one submission.

        Same construction path as :meth:`repro.api._LocalBackend.
        submit`, split around the fingerprint so the quota check can
        let idempotent resubmissions of an already-registered job
        through even for clients at their limit.
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
                   "devices", "batches", "pointing_engine", "seed",
                   "overrides", "label", "replicate"}
        unknown = set(spec) - allowed
        if unknown:
            raise ValueError(
                f"unknown submission field(s): {', '.join(sorted(unknown))}")
        kwargs = {k: v for k, v in spec.items() if v is not None}
        dataset = kwargs.pop("dataset", None)
        mc, g = _build_cell(algorithm, dataset, **kwargs)
        fp, config, gfp = fingerprint_for(mc.cell, mc.ctx, g)
        store = self.store()
        if self.quota is not None and store.get(fp) is None:
            backlog = [r for r in store.select(client=client)
                       if r.status in ("pending", "leased")
                       and not r.cancel_requested]
            if len(backlog) >= self.quota:
                self.registry.counter(
                    REJECTS_COUNTER,
                    "Submissions refused by the daemon.",
                    reason="quota").inc()
                raise QuotaExceeded(
                    f"client {client!r} has {len(backlog)} unfinished "
                    f"jobs (quota {self.quota}); wait or cancel some")
        store.register(
            fp, algorithm=mc.cell.algorithm_name, config=config,
            seed=mc.ctx.seed, graph_fingerprint=gfp,
            dataset=mc.cell.dataset or mc.ctx.dataset,
            priority=priority, client=client)
        self.registry.counter(
            SUBMITS_COUNTER, "Jobs accepted over HTTP.").inc()
        row = store.get(fp)
        return {"fingerprint": fp,
                "state": row.state if row is not None else "pending"}

    def metrics_text(self) -> str:
        """Prometheus exposition: daemon counters + live queue gauges."""
        store = self.store()
        counts = store.counts()
        cancelled = sum(
            1 for r in store.select(status=("pending", "error"))
            if r.cancel_requested)
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
    # Socket timeout set by ``StreamRequestHandler.setup``.
    timeout = REQUEST_TIMEOUT_S

    # ------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------ #

    def log_message(self, fmt: str, *args: Any) -> None:
        if not self.server.quiet:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send(self, code: int, payload: Any,
              content_type: str = "application/json") -> None:
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode())
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
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
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------ #

    def _route(self, method: str, route: str, query: str) -> None:
        from repro.api import JobNotFound, _LocalBackend

        state = self.server.state
        backend = _LocalBackend(state.store())
        if method == "GET" and route == "/healthz":
            self._send(200, {"ok": True, "store": str(state.store_path),
                             "uptime_s": time.time() - state.started_at})
            return
        if method == "GET" and route == "/metrics":
            self._send(200, state.metrics_text().encode(),
                       content_type="text/plain; version=0.0.4")
            return
        if route == "/api/v1/jobs":
            if method == "POST":
                self._send(201, state.submit(self._body()))
                return
            if method == "GET":
                params = urllib.parse.parse_qs(query)

                def many(key: str) -> list[str] | None:
                    return params.get(key) or None

                jobs = backend.query(
                    algorithm=many("algorithm"), dataset=many("dataset"),
                    state=many("state"), client=many("client"))
                self._send(200, {"jobs": [j.to_dict() for j in jobs]})
                return
        if route.startswith("/api/v1/jobs/"):
            rest = route[len("/api/v1/jobs/"):]
            parts = rest.split("/")
            fp = parts[0]
            tail = "/".join(parts[1:])
            if method == "GET" and not tail:
                self._send(200, backend.status(fp).to_dict())
                return
            if method == "GET" and tail == "result":
                status = backend.status(fp)  # 404/derived state first
                record = backend.result(fp)  # raises 409 when cancelled
                self._send(200, {
                    "fingerprint": fp,
                    "state": status.state,
                    "record": None if record is None
                    else json.loads(record.to_json()),
                })
                return
            if method == "POST" and tail == "cancel":
                self._send(200, {"cancelled": backend.cancel(fp)})
                return
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
        super().__init__(address, _Handler)


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
