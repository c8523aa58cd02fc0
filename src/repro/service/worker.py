"""The worker fleet: drain a shared run store, priority-first.

Any number of ``repro worker`` processes (on any number of machines
sharing the database file) attach to the same
:class:`~repro.store.db.RunStore` and run this loop:

1. :meth:`~repro.store.db.RunStore.claim_next` atomically takes the
   lease on the highest-priority claimable cell (expired leases of
   dead workers included — stale reclaim is just another claim);
2. the cell is rebuilt from its stored config
   (:func:`~repro.store.fingerprint.cell_from_config`), its graph
   staged (shared-memory plane first for co-located workers, see
   below), and executed through the **same single-cell path as serial
   grids** (:func:`~repro.engine.cells.run_materialised_cell`) — which
   is what makes fleet-produced records bit-identical to
   ``run_cells``;
3. a heartbeat thread refreshes the lease while the cell runs, so only
   genuinely dead workers lose theirs;
4. the outcome is persisted (:meth:`~repro.store.db.RunStore.complete`)
   and the loop repeats.

Cancellation is honoured *between rounds*: flagged rows are never
claimed (:meth:`claim_next` skips them) and a flag that lands after
the claim but before execution releases the lease instead of running.
A cell already executing finishes and publishes its result — matching
runs are not interruptible mid-simulation.

Graph staging: workers on one host reuse the zero-copy shared-memory
graph plane (:mod:`repro.harness.shm`).  The first worker to build a
graph publishes its CSR arrays and records the segment descriptor
under ``shm:<graph_fingerprint>`` in the store's metadata table;
siblings attach the segment read-only instead of regenerating the
dataset analog.  Dead segments (owner exited) fall back to a normal
build and the stale descriptor is dropped.  ``REPRO_SHM=off`` disables
the plane; records are identical either way (the staged bytes are, by
fingerprint, the same graph).  Only a long-lived worker publishes:
an inline drain (:func:`repro.api.process`) would unlink its segments
on return, before any sibling could attach them, so it only attaches.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.record import RunRecord
    from repro.store.db import RunStore, StoredRun

__all__ = ["WorkerSummary", "worker_loop", "run_claimed_cell"]

#: Between-round sleep while the queue is empty.
DEFAULT_POLL_S = 0.5


@dataclass
class WorkerSummary:
    """What one :func:`worker_loop` invocation did."""

    worker_id: str
    executed: int = 0
    ok: int = 0
    errors: int = 0
    cancelled: int = 0
    unbuildable: int = 0
    stale_reclaims: int = 0
    wall_s: float = 0.0
    fingerprints: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "worker": self.worker_id,
            "executed": self.executed,
            "ok": self.ok,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "unbuildable": self.unbuildable,
            "stale_reclaims": self.stale_reclaims,
            "wall_s": self.wall_s,
            "fingerprints": self.fingerprints,
        }


class _Heartbeat:
    """Refresh the lease on one fingerprint from a side thread.

    Uses its own :class:`RunStore` instance (hence its own SQLite
    connection) because connections are not thread-safe; the worker
    identity is shared so the refresh lands on our lease.
    """

    def __init__(self, store: "RunStore", fingerprint: str) -> None:
        from repro.store.db import RunStore

        self._store = RunStore(store.path,
                               lease_seconds=store.lease_seconds,
                               clock=store.clock,
                               worker_id=store.worker_id)
        self._fingerprint = fingerprint
        self._stop = threading.Event()
        interval = max(store.lease_seconds / 3.0, 0.05)
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True)

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self._store.heartbeat(self._fingerprint)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._store.close()


def _stage_graph(store: "RunStore", cell: Any, graph_fp: str | None,
                 registry: Any, publish: bool):
    """The cell's input graph: shared-memory plane first, then the
    normal build path (dataset registry / builder / context dataset).
    A built graph is published for siblings only when ``publish``."""
    meta_key = f"shm:{graph_fp}" if graph_fp else None
    if registry is not None and meta_key is not None:
        doc = store.meta_get(meta_key)
        if doc is not None:
            from repro.harness.shm import SharedGraphSegment

            try:
                return registry.attach(SharedGraphSegment(
                    **json.loads(doc)))
            except (FileNotFoundError, OSError, TypeError, ValueError):
                # Owner exited (or a stale/garbled descriptor): build
                # normally and drop the dead pointer.
                store.meta_delete(meta_key)
    from repro.engine.cells import _resolve_graph
    from repro.harness.datasets import load_dataset
    from repro.store.fingerprint import shared_graph_dataset

    shared = shared_graph_dataset(cell)
    g = _resolve_graph(cell, None if shared is None
                       else load_dataset(shared))
    if publish and registry is not None and meta_key is not None:
        import dataclasses

        seg = registry.publish(g, graph_fp)
        store.meta_set(meta_key, json.dumps(dataclasses.asdict(seg)))
    return g


def run_claimed_cell(store: "RunStore", row: "StoredRun",
                     registry: Any = None,
                     publish: bool = True) -> "RunRecord":
    """Execute one already-claimed row and persist its outcome.

    Mirrors :func:`~repro.engine.cells.run_stored_cell`'s inner
    execution exactly (same error-record shape, same lease release on
    ``KeyboardInterrupt``/``SystemExit``), except the lease is already
    ours.  A cell whose config cannot be rebuilt in this process (its
    graph lived only in the submitting process) is completed as an
    ``error`` record — visible in ``store ls`` and still directly
    claimable by the owning grid, which re-runs it with the in-process
    graph.  ``registry`` is the shared-memory plane to attach from and,
    with ``publish``, to publish a freshly built graph into.
    """
    from repro.engine.cells import (
        error_record,
        materialise_cells,
        run_materialised_cell,
    )
    from repro.store.fingerprint import cell_from_config

    fp = row.fingerprint
    started_at = time.time()
    try:
        cell = cell_from_config(row.config)
        mc = materialise_cells([cell])[0]
        g = _stage_graph(store, cell, row.graph_fingerprint, registry,
                         publish)
    except Exception as exc:
        from repro.engine.cells import Cell
        from repro.engine.context import RunContext

        record = error_record(
            Cell(row.algorithm, dataset=row.dataset), RunContext(),
            None, exc, fingerprint=fp, config=row.config,
            started_at=started_at)
        store.complete(fp, record)
        return record
    with _Heartbeat(store, fp):
        try:
            record = run_materialised_cell(mc, g, on_error="raise")
        except Exception as exc:
            record = error_record(mc.cell, mc.ctx, g, exc,
                                  fingerprint=fp, config=row.config,
                                  started_at=started_at)
            store.complete(fp, record)
            return record
        except BaseException:
            store.release(fp)
            raise
    store.complete(fp, record)
    return record


def worker_loop(
    store: "RunStore",
    *,
    poll_s: float = DEFAULT_POLL_S,
    max_cells: int | None = None,
    idle_exit_s: float | None = None,
    algorithm: str | Iterable[str] | None = None,
    lease_seconds: float | None = None,
    on_cell: Callable[[str, "RunRecord"], None] | None = None,
    publish: bool = True,
) -> WorkerSummary:
    """Claim and execute cells until the exit condition is met.

    Parameters
    ----------
    poll_s:
        Sleep between rounds while nothing is claimable.
    max_cells:
        Stop after executing this many cells (``None`` = unbounded).
    idle_exit_s:
        Stop after this long with an empty queue; ``0`` stops at the
        first empty poll (drain-and-return), ``None`` runs until
        interrupted (the ``repro worker`` service default).
    algorithm:
        Restrict claims to these algorithm name(s) — a specialised
        worker pool.
    lease_seconds:
        Per-claim lease override (default: the store's).
    on_cell:
        Callback ``(fingerprint, record)`` after each persisted cell
        (the CLI's per-cell log line).
    publish:
        Publish each built graph to shared memory for co-located
        siblings (the long-lived ``repro worker``).  An inline drain
        (:func:`repro.api.process`) passes False: segments it
        published would be unlinked on its return, before any other
        process could attach them.  Segments other workers published
        are attached either way; without ``publish`` their handles
        are closed on return.

    Returns a :class:`WorkerSummary`.  ``KeyboardInterrupt`` mid-cell
    releases the lease (the cell returns to ``pending``) and the
    summary reflects the work done so far.
    """
    registry = None
    from repro.harness.shm import default_registry, shm_enabled

    if shm_enabled():
        registry = default_registry()
    stale_before = store.stale_reclaims
    summary = WorkerSummary(worker_id=store.worker_id)
    t0 = time.monotonic()
    idle_since: float | None = None
    try:
        while True:
            if max_cells is not None and summary.executed >= max_cells:
                break
            row = store.claim_next(lease_seconds, algorithm=algorithm)
            if row is None:
                if idle_exit_s is not None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if now - idle_since >= idle_exit_s:
                        break
                time.sleep(poll_s)
                continue
            idle_since = None
            # A cancel that landed after the claim: hand the row back
            # untouched (it stays flagged, so nobody re-claims it).
            fresh = store.get(row.fingerprint)
            if fresh is not None and fresh.cancel_requested:
                store.release(row.fingerprint)
                summary.cancelled += 1
                continue
            record = run_claimed_cell(store, row, registry, publish)
            summary.executed += 1
            summary.fingerprints.append(row.fingerprint)
            if record.ok:
                summary.ok += 1
            elif (record.error or {}).get("type") == "ValueError" and \
                    "not resumable" in (record.error or {}).get(
                        "message", ""):
                summary.unbuildable += 1
                summary.errors += 1
            else:
                summary.errors += 1
            if on_cell is not None:
                on_cell(row.fingerprint, record)
    except KeyboardInterrupt:
        pass
    finally:
        summary.stale_reclaims = store.stale_reclaims - stale_before
        summary.wall_s = time.monotonic() - t0
        if publish and registry is not None:
            for seg in registry.segments():
                try:
                    store.meta_delete(f"shm:{seg.fingerprint}")
                except sqlite3.Error:
                    pass
            registry.unlink_all()
        elif registry is not None:
            registry.detach_all()
    return summary
