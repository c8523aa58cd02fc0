"""repro.api — the stable programmatic surface of the reproduction.

This module is the **single supported entry point** for driving runs
from Python, whether the work executes in this process, in a shared
:class:`~repro.store.db.RunStore` drained by a ``repro worker`` fleet,
or behind a remote ``repro serve`` daemon.  Everything else under
``repro.*`` is either re-exported here, documented in ``docs/api.md``,
or an implementation detail that may move between releases.

Five job verbs plus two synchronous conveniences::

    import repro.api as api

    # fire-and-forget through a store or a daemon
    fp = api.submit("ld_gpu", dataset="GAP-kron", devices=4,
                    priority=5, client="alice", store="runs.db")
    api.status(fp, store="runs.db").state        # "pending" ... "done"
    record = api.result(fp, store="runs.db", wait=True)

    # synchronous, in-process
    record = api.run("ld_gpu", dataset="mouse_gene", devices=4)

Every verb takes ``store=`` naming where the jobs live:

* a :class:`~repro.store.db.RunStore`, a path, or ``None`` (which
  falls back to ``$REPRO_RUN_STORE``) — **local mode**: the store is
  opened directly, and each thread reuses one connection per path;
* an ``http://host:port`` URL — **client mode**: the verb becomes an
  HTTP call against a ``repro serve`` daemon over one keep-alive
  connection per thread; no SQLite file is touched from this process.

The two modes are interchangeable by construction: the daemon's
handlers call the exact local functions below, so a job submitted over
HTTP lands in the store byte-for-byte as one submitted in-process.

Submission is validated against the :class:`~repro.engine.spec.
AlgorithmSpec` registry (unknown algorithms and inapplicable options
are rejected before anything is registered), and the returned job id
is the cell's *content fingerprint* — submitting the same work twice
returns the same id and never recomputes a finished result.
"""

from __future__ import annotations

import atexit
import http.client
import json
import os
import threading
import time
import urllib.parse
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.record import RunRecord
    from repro.store.db import RunStore, StoredRun

__all__ = [
    "JobError",
    "JobNotFound",
    "JobCancelled",
    "QuotaExceeded",
    "JobStatus",
    "submit",
    "status",
    "result",
    "cancel",
    "query",
    "run",
    "sweep",
    "process",
]

#: Job-facing lifecycle states (`JobStatus.state`): the store's row
#: statuses plus the derived terminal ``cancelled``.
JOB_STATES = ("pending", "leased", "done", "error", "cancelled")

_DEFAULT_POLL_S = 0.2


class JobError(Exception):
    """Base class for job-lifecycle failures raised by this module."""


class JobNotFound(JobError, KeyError):
    """No job with that fingerprint exists in the target store."""


class JobCancelled(JobError):
    """The job was cancelled before a result could be produced."""


class QuotaExceeded(JobError):
    """The daemon refused the submission (per-client pending quota)."""


@dataclass(frozen=True)
class JobStatus:
    """One job's lifecycle snapshot, identical in local and HTTP mode."""

    fingerprint: str
    state: str
    algorithm: str
    dataset: str | None
    priority: int
    client: str | None
    attempts: int
    worker: str | None
    cancel_requested: bool
    seed: int | None
    created_at: float
    updated_at: float
    error_type: str | None = None
    error_message: str | None = None

    @property
    def terminal(self) -> bool:
        """Whether the job can no longer change state on its own."""
        return self.state in ("done", "error", "cancelled")

    @classmethod
    def from_stored(cls, row: "StoredRun") -> "JobStatus":
        return cls(
            fingerprint=row.fingerprint,
            state=row.state,
            algorithm=row.algorithm,
            dataset=row.dataset,
            priority=row.priority,
            client=row.client,
            attempts=row.attempts,
            worker=row.worker,
            cancel_requested=row.cancel_requested,
            seed=row.seed,
            created_at=row.created_at,
            updated_at=row.updated_at,
            error_type=row.error_type,
            error_message=row.error_message,
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "JobStatus":
        return cls(**{k: doc.get(k) for k in cls.__dataclass_fields__})


# ------------------------------------------------------------------ #
# cell construction (shared by submit/run; the daemon reuses submit)
# ------------------------------------------------------------------ #


def _resolve_platform(platform: Any):
    """A PlatformSpec from a registry name, a spec, or None."""
    if platform is None or not isinstance(platform, str):
        return platform
    from repro.harness.datasets import PLATFORMS

    if platform not in PLATFORMS:
        raise ValueError(f"unknown platform {platform!r}; have "
                         f"{', '.join(sorted(PLATFORMS))}")
    return PLATFORMS[platform]


def _resolve_builder(builder: Any) -> Callable[[], Any] | None:
    """A module-level builder callable from a callable or a
    ``module:qualname`` reference; validated to be re-importable so
    worker processes can rebuild the cell."""
    if builder is None:
        return None
    from repro.store.fingerprint import _builder_ref, _import_builder

    if isinstance(builder, str):
        try:
            return _import_builder(builder)
        except (ImportError, AttributeError) as exc:
            raise ValueError(
                f"builder {builder!r} is not importable: {exc}"
            ) from exc
    ref = _builder_ref(builder)
    try:
        if _import_builder(ref) is not builder:
            raise ValueError(
                f"builder {ref!r} does not resolve back to the given "
                "callable (lambdas and closures cannot be shipped to "
                "workers; use a module-level function)")
    except (ImportError, AttributeError) as exc:
        raise ValueError(
            f"builder {ref!r} is not importable by workers: {exc}"
        ) from exc
    return builder


def _is_coreset_coordinator(spec: Any) -> bool:
    """Whether ``spec`` is a coreset coordinator (``coreset_greedy``,
    ``coreset_ld``) rather than the internal per-shard cell."""
    return "coreset" in spec.tags and "internal" not in spec.tags


def _build_cell(
    algorithm: str,
    dataset: str | None,
    *,
    builder: Any = None,
    quality: bool = False,
    platform: Any = None,
    devices: int = 1,
    batches: int | None = None,
    seed: int | None = None,
    overrides: dict[str, Any] | None = None,
    label: str | None = None,
    replicate: int | None = None,
    sinks: Sequence[Any] = (),
):
    """Validate one job spec against the registry and bind it into a
    ``(MaterialisedCell, CSRGraph)`` pair — the exact first cell of a
    one-cell :func:`~repro.engine.cells.run_cells` grid, which is what
    makes submitted jobs bit-identical to locally executed ones.

    A coreset coordinator on a registry dataset gets that dataset and
    ``quality`` as overrides (an explicit override wins), so its
    fingerprint is the same whichever verb or daemon built it."""
    from repro.engine.cells import Cell, materialise_cells
    from repro.engine.context import RunContext
    from repro.engine.spec import get_spec

    spec = get_spec(algorithm)  # raises UnknownAlgorithmError
    if dataset is not None and _is_coreset_coordinator(spec):
        # The coordinator hands the dataset ref down to its shard
        # cells so another process can rebuild them from the store.
        overrides = {"dataset": dataset, "quality": quality,
                     **(overrides or {})}
    if dataset is not None and builder is not None:
        raise ValueError("pass dataset or builder, not both")
    platform_spec = _resolve_platform(platform)
    build = _resolve_builder(builder)
    if dataset is not None:
        from repro.harness.datasets import (
            DATASETS,
            load_dataset,
            quality_instance,
        )

        if dataset not in DATASETS:
            raise ValueError(f"unknown dataset {dataset!r}; have "
                             f"{', '.join(sorted(DATASETS))}")
        g = quality_instance(dataset) if quality else load_dataset(dataset)
        ctx_kwargs: dict[str, Any] = dict(
            graph=g, num_devices=int(devices), num_batches=batches,
            seed=seed, sinks=tuple(sinks))
        if platform_spec is not None:
            ctx_kwargs["platform"] = platform_spec
        ctx = RunContext.for_dataset(dataset, **ctx_kwargs)
    elif build is not None:
        g = build()
        ctx = RunContext(platform=platform_spec,
                         num_devices=int(devices), num_batches=batches,
                         seed=seed, sinks=tuple(sinks))
    else:
        raise ValueError("a job needs a graph source: pass dataset=NAME "
                         "or builder=module-level-callable")
    cell = Cell(algorithm, dataset=dataset, quality=quality,
                build=build, ctx=ctx,
                overrides=dict(overrides or {}), label=label,
                replicate=replicate)
    return materialise_cells([cell])[0], g


# ------------------------------------------------------------------ #
# backends: local RunStore vs repro-serve HTTP
# ------------------------------------------------------------------ #


def _is_url(store: Any) -> bool:
    return isinstance(store, str) and \
        store.startswith(("http://", "https://"))


class _ThreadSlot(threading.local):
    """This thread's one open connection, filed under a key whose first
    item is the pid.  Asking for any other key closes it, so the caller
    opens its replacement with the old one already gone.

    That includes a connection a forked child inherited: closing it
    never writes to the parent's socket (the parent still holds it
    open, so no FIN is sent).  A kept store's inherited SQLite
    connection is already closed by :mod:`repro.store.db`'s own fork
    hook.
    """

    key: tuple = ()
    conn: Any = None

    def get(self, key: tuple) -> Any:
        if self.key == key:
            return self.conn
        self.discard()
        return None

    def put(self, key: tuple, conn: Any) -> None:
        self.key, self.conn = key, conn

    def discard(self) -> None:
        if self.conn is not None:
            self.conn.close()
        self.key, self.conn = (), None


_STORES = _ThreadSlot()
_DAEMONS = _ThreadSlot()


def _close_kept() -> None:
    _STORES.discard()
    _DAEMONS.discard()


# The main thread's connections close at exit, not in interpreter
# teardown (a socket left to the collector warns).  A forked child
# drops the forking thread's daemon connection at once; store
# connections are closed by repro.store.db's fork hook.
atexit.register(_close_kept)
os.register_at_fork(after_in_child=_DAEMONS.discard)


def _file_id(path: str) -> tuple[int, int] | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _local_store(store: Any) -> "RunStore":
    """The store behind a local-mode ``store=``: a RunStore is used as
    given (never cached, never closed); a path, or
    ``$REPRO_RUN_STORE``, gets this thread's reused store.

    The reused store is checked on every borrow against the process,
    the absolute path, the file's identity (device, inode) and the
    lease, so a forked child, a replaced or recreated file, or a new
    ``REPRO_RUN_STORE_LEASE_S`` gets a fresh connection.  A thread
    keeps one store; switching paths closes the old one.
    """
    from repro.store.db import (
        RUN_STORE_ENV,
        RunStore,
        default_lease_seconds,
    )

    if isinstance(store, RunStore):
        return store
    if store is None:
        store = os.environ.get(RUN_STORE_ENV) or None
    if store is None:
        raise ValueError("no run store: pass store=PATH (or an "
                         "http:// daemon URL) or set REPRO_RUN_STORE")
    path = os.path.abspath(os.fspath(store))
    lease = default_lease_seconds()
    cached = _STORES.get((os.getpid(), path, _file_id(path), lease))
    if cached is not None:
        return cached
    fresh = RunStore(path, lease_seconds=lease)
    fresh._connect()  # creates the file, so its identity can be read
    _STORES.put((os.getpid(), path, _file_id(path), lease), fresh)
    return fresh


class _LocalBackend:
    """Job verbs against a directly opened RunStore."""

    def __init__(self, store: "RunStore") -> None:
        self.store = store

    def submit(self, spec: dict[str, Any]) -> str:
        from repro.store.fingerprint import fingerprint_for

        priority = int(spec.pop("priority", 0) or 0)
        client = spec.pop("client", None)
        mc, g = _build_cell(spec.pop("algorithm"),
                            spec.pop("dataset", None), **spec)
        fp, config, gfp = fingerprint_for(mc.cell, mc.ctx, g)
        self.store.register(
            fp, algorithm=mc.cell.algorithm_name, config=config,
            seed=mc.ctx.seed, graph_fingerprint=gfp,
            dataset=mc.cell.dataset or mc.ctx.dataset,
            priority=priority, client=client)
        return fp

    def _row(self, fingerprint: str) -> "StoredRun":
        row = self.store.get(fingerprint)
        if row is None:
            raise JobNotFound(fingerprint)
        return row

    def status(self, fingerprint: str) -> JobStatus:
        return JobStatus.from_stored(self._row(fingerprint))

    def result_json(self, fingerprint: str) -> tuple[str, str | None]:
        """``(state, record_json)`` from one read of the row: the
        stored record text when terminal, None while in flight; raises
        :class:`JobCancelled` for cancelled jobs."""
        row = self._row(fingerprint)
        if row.state == "cancelled":
            raise JobCancelled(fingerprint)
        text = row.record_json if row.status in ("done", "error") else None
        return row.state, text

    def result(self, fingerprint: str) -> "RunRecord | None":
        """:meth:`result_json`'s record, parsed."""
        _state, text = self.result_json(fingerprint)
        if text is None:
            return None
        from repro.engine.record import RunRecord

        return RunRecord.from_json(text)

    def cancel(self, fingerprint: str) -> bool:
        self._row(fingerprint)
        return self.store.request_cancel(fingerprint)

    def query(self, *, algorithm=None, dataset=None, state=None,
              client=None) -> list[JobStatus]:
        states = None if state is None else (
            [state] if isinstance(state, str) else list(state))
        for s in states or ():
            if s not in JOB_STATES:
                raise ValueError(f"unknown state {s!r}; have "
                                 f"{', '.join(JOB_STATES)}")
        # "cancelled" is derived, so SQL narrows on the real statuses
        # and the derived state filters in Python.
        sql_status = None
        if states is not None:
            sql_status = set()
            for s in states:
                sql_status.update(("pending", "error")
                                  if s == "cancelled" else (s,))
        rows = self.store.select(algorithm=algorithm, dataset=dataset,
                                 status=sql_status, client=client)
        out = [JobStatus.from_stored(r) for r in rows]
        if states is not None:
            out = [j for j in out if j.state in states]
        return out


#: Seconds a daemon call waits on its socket.
_HTTP_TIMEOUT_S = 60
#: How a reused keep-alive connection fails before its response when
#: the daemon closed it while idle or restarted.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError,
                     BrokenPipeError)


class _HttpBackend:
    """The same verbs as JSON calls against a ``repro serve`` daemon.

    Each thread keeps one keep-alive connection, to the daemon it
    called last; calling another daemon closes it, and a forked child
    opens its own.  A request that fails on a *reused* connection
    before any response arrives is re-sent once on a fresh one: that
    is how a daemon that closed an idle connection, or restarted,
    looks.  Re-sending is safe for every verb: ``submit`` is
    content-addressed, ``cancel`` sets a flag, and the rest are GETs.
    A failure on a fresh connection is never retried.
    """

    def __init__(self, base_url: str) -> None:
        parts = urllib.parse.urlsplit(base_url.rstrip("/"))
        self.scheme, self.netloc, self.prefix = (
            parts.scheme, parts.netloc, parts.path)

    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's connection to the daemon, and whether it has
        carried a request before."""
        key = (os.getpid(), self.scheme, self.netloc)
        conn = _DAEMONS.get(key)
        if conn is not None:
            return conn, True
        cls = (http.client.HTTPSConnection if self.scheme == "https"
               else http.client.HTTPConnection)
        conn = cls(self.netloc, timeout=_HTTP_TIMEOUT_S)
        _DAEMONS.put(key, conn)
        return conn, False

    def _exchange(self, method: str, target: str, data: bytes | None,
                  headers: dict[str, str]) -> tuple[int, str, bytes]:
        """``(status, reason, body)`` of one request; the body is
        always read whole, so the connection can carry the next."""
        conn, reused = self._connection()
        try:
            try:
                conn.request(method, target, body=data, headers=headers)
                resp = conn.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                _DAEMONS.discard()
                conn, _ = self._connection()
                conn.request(method, target, body=data, headers=headers)
                resp = conn.getresponse()
            payload = resp.read()
        except BaseException:
            _DAEMONS.discard()
            raise
        if resp.will_close:  # the daemon sent Connection: close
            _DAEMONS.discard()
        return resp.status, resp.reason, payload

    def _call(self, method: str, path: str,
              body: dict[str, Any] | None = None,
              params: dict[str, Any] | None = None) -> Any:
        target = f"{self.prefix}{path}"
        if params:
            pairs = []
            for k, v in params.items():
                if v is None:
                    continue
                vals = v if isinstance(v, (list, tuple)) else [v]
                pairs.extend((k, str(x)) for x in vals)
            if pairs:
                target += "?" + urllib.parse.urlencode(pairs)
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        code, reason, payload = self._exchange(method, target, data,
                                               headers)
        if not 200 <= code < 300:
            detail = ""
            try:
                detail = json.loads(payload or b"{}").get("error", "")
            except (ValueError, AttributeError):
                pass
            if code == 404:
                raise JobNotFound(detail or path)
            if code == 409:
                raise JobCancelled(detail or path)
            if code == 429:
                raise QuotaExceeded(detail or path)
            raise ValueError(
                f"daemon rejected {method} {path}: "
                f"{detail or reason} (HTTP {code})")
        return json.loads(payload) if payload else None

    def submit(self, spec: dict[str, Any]) -> str:
        builder = spec.get("builder")
        if builder is not None and not isinstance(builder, str):
            from repro.store.fingerprint import _builder_ref

            spec["builder"] = _builder_ref(builder)
        platform = spec.get("platform")
        if platform is not None and not isinstance(platform, str):
            raise ValueError(
                "HTTP submission takes a registry platform name; "
                f"got {type(platform).__name__}")
        sinks = spec.pop("sinks", ())
        if sinks:
            raise ValueError("sinks cannot be attached to remote jobs")
        doc = self._call("POST", "/api/v1/jobs", body=spec)
        return doc["fingerprint"]

    def status(self, fingerprint: str) -> JobStatus:
        doc = self._call("GET", f"/api/v1/jobs/{fingerprint}")
        return JobStatus.from_dict(doc)

    def result(self, fingerprint: str) -> "RunRecord | None":
        doc = self._call("GET", f"/api/v1/jobs/{fingerprint}/result")
        if doc.get("record") is None:
            return None
        from repro.engine.record import RunRecord

        return RunRecord.from_dict(doc["record"])

    def cancel(self, fingerprint: str) -> bool:
        doc = self._call("POST", f"/api/v1/jobs/{fingerprint}/cancel")
        return bool(doc.get("cancelled"))

    def query(self, *, algorithm=None, dataset=None, state=None,
              client=None) -> list[JobStatus]:
        doc = self._call("GET", "/api/v1/jobs", params={
            "algorithm": algorithm, "dataset": dataset,
            "state": state, "client": client})
        return [JobStatus.from_dict(d) for d in doc["jobs"]]


def _backend(store: Any) -> "_LocalBackend | _HttpBackend":
    if _is_url(store):
        return _HttpBackend(store)
    return _LocalBackend(_local_store(store))


# ------------------------------------------------------------------ #
# the public verbs
# ------------------------------------------------------------------ #


def submit(
    algorithm: str,
    dataset: str | None = None,
    *,
    builder: Any = None,
    quality: bool = False,
    platform: Any = None,
    devices: int = 1,
    batches: int | None = None,
    seed: int | None = None,
    overrides: dict[str, Any] | None = None,
    label: str | None = None,
    replicate: int | None = None,
    priority: int = 0,
    client: str | None = None,
    store: Any = None,
) -> str:
    """Register a matching job and return its fingerprint (job id).

    The job is validated against the algorithm registry, addressed by
    content (resubmitting identical work returns the same fingerprint
    without invalidating a finished result), and becomes claimable by
    any ``repro worker`` attached to the same store.  ``priority``
    orders the queue (higher first), ``client`` attributes the job.
    ``store`` may be a path/:class:`~repro.store.db.RunStore` (local)
    or an ``http://`` daemon URL (remote).
    """
    return _backend(store).submit(dict(
        algorithm=algorithm, dataset=dataset, builder=builder,
        quality=quality, platform=platform, devices=devices,
        batches=batches, seed=seed, overrides=overrides, label=label,
        replicate=replicate, priority=priority, client=client))


def status(fingerprint: str, *, store: Any = None) -> JobStatus:
    """The job's lifecycle snapshot; raises :class:`JobNotFound`."""
    return _backend(store).status(fingerprint)


def result(
    fingerprint: str,
    *,
    store: Any = None,
    wait: bool = False,
    timeout: float | None = None,
    poll_s: float = _DEFAULT_POLL_S,
) -> "RunRecord | None":
    """The job's :class:`~repro.engine.record.RunRecord`.

    Served bit-identically from the store once the job is terminal
    (check ``record.ok`` — failed jobs return their ``error`` record).
    While the job is still pending/leased: returns ``None``, or with
    ``wait=True`` polls until it lands (``timeout`` seconds →
    :class:`TimeoutError`).  Cancelled jobs raise
    :class:`JobCancelled`.
    """
    backend = _backend(store)
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        record = backend.result(fingerprint)
        if record is not None or not wait:
            return record
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(
                f"job {fingerprint} not finished after {timeout}s")
        time.sleep(poll_s)


def cancel(fingerprint: str, *, store: Any = None) -> bool:
    """Request cancellation: workers skip the job between rounds and a
    not-yet-started lease is released.  Jobs already ``done`` stay
    done (returns False); raises :class:`JobNotFound` for unknown
    fingerprints."""
    return _backend(store).cancel(fingerprint)


def query(
    *,
    algorithm: str | Iterable[str] | None = None,
    dataset: str | Iterable[str] | None = None,
    state: str | Iterable[str] | None = None,
    client: str | Iterable[str] | None = None,
    store: Any = None,
) -> list[JobStatus]:
    """Jobs matching the filters, oldest first.  ``state`` accepts the
    job states (:data:`JOB_STATES`), including the derived
    ``cancelled``."""
    return _backend(store).query(algorithm=algorithm, dataset=dataset,
                                 state=state, client=client)


# ------------------------------------------------------------------ #
# synchronous conveniences (in-process execution)
# ------------------------------------------------------------------ #


def run(
    algorithm: str,
    dataset: str | None = None,
    *,
    builder: Any = None,
    quality: bool = False,
    platform: Any = None,
    devices: int = 1,
    batches: int | None = None,
    seed: int | None = None,
    overrides: dict[str, Any] | None = None,
    label: str | None = None,
    sinks: Sequence[Any] = (),
    store: Any = None,
) -> "RunRecord":
    """Execute one job synchronously in this process and return its
    :class:`~repro.engine.record.RunRecord`.

    Same validation and cell shape as :func:`submit`, executed
    immediately.  With ``store=`` (a path or RunStore — not a daemon
    URL) the run is durable: a previously stored result is served
    without recompute and a fresh one is persisted.  Exceptions
    propagate (no error-record swallowing — this is the interactive
    path).
    """
    if _is_url(store):
        raise ValueError("run() executes locally; submit() the job to "
                         "a daemon URL instead")
    from repro.engine.cells import run_materialised_cell, run_stored_cell

    mc, g = _build_cell(
        algorithm, dataset, builder=builder, quality=quality,
        platform=platform, devices=devices, batches=batches,
        seed=seed, overrides=overrides, label=label, sinks=sinks)
    if store is None:
        from repro.store.db import RUN_STORE_ENV

        store = os.environ.get(RUN_STORE_ENV) or None
    if store is None:
        return run_materialised_cell(mc, g, on_error="raise")
    return run_stored_cell(mc, g, _local_store(store),
                           on_error="raise")


def sweep(
    dataset: str,
    *,
    platform: Any = None,
    devices: tuple[int, ...] = (1, 2, 4, 8),
    batches: tuple[int | None, ...] = (None,),
    parallel: int = 0,
    seed: int | None = None,
    collect_metrics: bool = False,
    store: Any = None,
):
    """Sweep LD-GPU over a device/batch grid on a registry dataset —
    the facade over :func:`repro.harness.sweep.sweep_ld_gpu` the CLI's
    ``sweep`` verb runs on.  Returns its ``SweepResult``."""
    if _is_url(store):
        raise ValueError("sweep() executes locally; submit() the grid "
                         "cells to a daemon URL instead")
    from repro.harness.datasets import load_dataset
    from repro.harness.sweep import sweep_ld_gpu
    from repro.store.db import resolve_store

    platform_spec = _resolve_platform(platform)
    if platform_spec is None:
        platform_spec = _resolve_platform("DGX-A100")
    g = load_dataset(dataset)
    return sweep_ld_gpu(
        g, platforms=(platform_spec,), device_counts=tuple(devices),
        batch_counts=tuple(batches), parallel=parallel,
        collect_metrics=collect_metrics, seed=seed,
        store=resolve_store(store), dataset=dataset)


def process(
    *,
    store: Any = None,
    max_cells: int | None = None,
    idle_exit_s: float = 0.0,
    poll_s: float = 0.5,
    algorithm: str | Iterable[str] | None = None,
) -> int:
    """Drain claimable jobs *in this process* (an inline worker).

    Runs the same loop as ``repro worker`` — priority-first claims,
    heartbeats, cancellation honoured between rounds — and returns the
    number of cells executed.  ``idle_exit_s=0`` returns as soon as
    the queue is empty, which makes this the programmatic way to drain
    a store you just submitted to.  Unlike ``repro worker`` it
    publishes no graph to shared memory (it still attaches segments a
    long-lived worker published).  A store given as a path stays open
    for this thread's next call, like every local-mode verb's (see
    :func:`_local_store`); a ``RunStore`` passed in is used as given.
    """
    if _is_url(store):
        raise ValueError("process() drains a local store; workers "
                         "attach to the database, not the daemon")
    from repro.service.worker import worker_loop

    summary = worker_loop(_local_store(store), max_cells=max_cells,
                          idle_exit_s=idle_exit_s, poll_s=poll_s,
                          algorithm=algorithm, publish=False)
    return summary.executed
