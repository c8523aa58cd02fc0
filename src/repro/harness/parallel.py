"""Process-parallel sweep execution.

Sweep grids are embarrassingly parallel across configurations — every
cell is an independent ``(algorithm, graph, context)`` triple whose
result depends on nothing but its own inputs (Birn et al.,
arXiv:1302.4587 exploit exactly this for matching experiments).  This
module fans :func:`~repro.engine.cells.run_cells` grids out to a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* **Bit-identical to serial.**  Per-cell seeds are derived before
  dispatch (:func:`~repro.engine.cells.derive_cell_seed`), workers run
  the same :func:`~repro.engine.cells.run_materialised_cell` path as the
  serial loop, and results are re-ordered to cell order on collection.
* **Failure-isolated.**  A crashing cell comes back as an ``error``
  :class:`~repro.engine.record.RunRecord`; the rest of the grid keeps
  running (``on_error="raise"`` opts back into fail-fast).
* **Generation once per grid.**  Input graphs are staged through the
  fingerprint-keyed :class:`~repro.harness.cache.GraphCache` and loaded
  from ``.npz`` by the workers, so an RMAT/k-mer analog is generated
  once in the parent — never once per cell, and (warm cache) not even
  once per run.  With the cache disabled graphs ship by pickle instead.
* **Zero-copy staging.**  On top of the cache, the parent publishes
  each distinct graph into a shared-memory segment
  (:class:`~repro.harness.shm.SharedGraphRegistry`) and workers attach
  read-only views instead of re-reading and re-hashing ``.npz`` bytes —
  one mmap per (worker, graph) instead of one decompress per worker.
  The ``.npz`` entry is still written: it is the fallback when the
  segment is gone (cross-run warm starts, ``REPRO_SHM=off``, exotic
  platforms) and the durable artifact other runs key on.

Environment: ``REPRO_PARALLEL_START_METHOD`` forces a multiprocessing
start method (``fork``/``spawn``/``forkserver``); the platform default
is used otherwise.  ``REPRO_SHM=off`` disables shared-memory staging.
Context ``sinks`` are not notified from workers — aggregate from the
returned records instead.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.cells import MaterialisedCell, _resolve_graph, run_one
from repro.engine.record import RunRecord
from repro.harness.cache import GraphCache, cache_disabled
from repro.harness.shm import (
    SharedGraphSegment,
    default_registry,
    shm_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.store.db import RunStore

__all__ = ["run_cells_parallel"]

_ENV_START_METHOD = "REPRO_PARALLEL_START_METHOD"


@dataclass(frozen=True)
class _GraphRef:
    """How a worker obtains a cell's input graph.

    Workers try the channels cheapest-first: attach the shared-memory
    segment (``shm``, zero-copy), fall back to the disk snapshot
    (``path`` + expected ``fingerprint``, verified on load), or — with
    the cache disabled — unpickle the graph shipped ``inline``.
    """

    path: str | None = None
    fingerprint: str | None = None
    inline: "CSRGraph | None" = None
    shm: SharedGraphSegment | None = None


#: Per-worker memo of disk-loaded graphs, so a worker deserialises each
#: distinct graph once per process, not once per cell.  (Shared-memory
#: attaches have their own memo inside the worker's registry.)
_WORKER_GRAPHS: dict[tuple[str, str], "CSRGraph"] = {}


def _load_ref(ref: _GraphRef) -> "CSRGraph":
    if ref.inline is not None:
        return ref.inline
    if ref.shm is not None:
        try:
            return default_registry().attach(ref.shm)
        except (FileNotFoundError, OSError):
            # Segment owner is gone (or /dev/shm is unusable here) —
            # the .npz snapshot below carries the same verified bytes.
            pass
    key = (ref.path, ref.fingerprint)  # type: ignore[assignment]
    graph = _WORKER_GRAPHS.get(key)
    if graph is None:
        graph = GraphCache().load(ref.path, ref.fingerprint)
        _WORKER_GRAPHS[key] = graph
    return graph


def _worker_run(
    payload: tuple[MaterialisedCell, _GraphRef, str, "RunStore | None"],
) -> tuple[int, RunRecord]:
    """Executed in a worker process: load the graph, run the cell.  A
    store unpickles connection-less in the worker and opens its own WAL
    connection; claims are atomic across processes."""
    mc, ref, on_error, store = payload
    return mc.index, run_one(mc, functools.partial(_load_ref, ref),
                             on_error, store)


def _graph_key(mc: MaterialisedCell) -> tuple:
    # Builder cells dedup on the callable's identity: same function
    # object -> same (deterministic) graph, built once per grid.
    return (mc.cell.dataset, mc.cell.quality, mc.cell.build)


def _mp_context():
    method = os.environ.get(_ENV_START_METHOD)
    if not method:
        return None
    import multiprocessing

    return multiprocessing.get_context(method)


def _check_parallel_safe(mc: MaterialisedCell) -> None:
    """Fail fast — with a diagnosis — on builders that cannot ship.

    A lambda or locally defined builder dies inside ``pool.map`` with a
    bare ``PicklingError`` pages away from the user's code; catching it
    here turns that into an actionable message before any worker spawns.
    """
    import pickle

    build = mc.cell.build
    if build is None:
        return
    try:
        pickle.dumps(build)
    except Exception as exc:
        raise ValueError(
            f"cell {mc.cell.algorithm_name!r} has a graph builder "
            f"({build!r}) that is not parallel-safe: worker processes "
            "import builders by reference, so it must be a module-level "
            "callable (not a lambda, closure or locally defined "
            "function).  Move it to module scope or run with "
            f"parallel=1.  Underlying error: {exc}"
        ) from exc


def run_cells_parallel(
    materialised: Sequence[MaterialisedCell],
    *,
    graph: "CSRGraph | None" = None,
    max_workers: int = 2,
    on_error: str = "record",
    cache: Any = None,
    store: "RunStore | None" = None,
    shm: Any = None,
) -> list[RunRecord]:
    """Fan materialised cells out to worker processes; records return in
    cell order.

    ``cache=None`` stages graphs through the default
    :class:`GraphCache` (honouring ``REPRO_GRAPH_CACHE``); pass a
    :class:`GraphCache` to control placement, or ``False`` to ship
    graphs by pickle.  ``shm=None`` additionally publishes each staged
    graph into shared memory (when ``REPRO_SHM`` does not opt out) so
    workers attach zero-copy; pass ``False`` to force ``.npz``-only
    staging or a :class:`~repro.harness.shm.SharedGraphRegistry` to
    control segment ownership.  Segments published here are released
    when the grid completes.  ``store`` makes every worker execute
    through a :class:`~repro.store.db.RunStore` (``done`` cells served
    without recompute, claims arbitrated by the store's leases — so
    *several independent sweep processes* sharing one store divide the
    grid between themselves).  Callers normally reach this through
    :func:`repro.engine.cells.run_cells` with ``parallel=N``.
    """
    if not materialised:
        return []
    use_cache: GraphCache | None
    if cache is False:
        use_cache = None
    elif cache is None:
        use_cache = None if cache_disabled() else GraphCache()
    else:
        use_cache = cache
    if shm is False:
        registry = None
    elif shm is None:
        registry = default_registry() if shm_enabled() else None
    else:
        registry = shm

    # One graph build per distinct (dataset, quality) of the grid —
    # generation happens here, in the parent, exactly once.  The .npz
    # snapshot is always written (durable, cross-run); the shm segment
    # rides alongside as the fast intra-run channel.
    refs: dict[tuple[str | None, bool], _GraphRef] = {}
    published: list[str] = []
    try:
        for mc in materialised:
            key = _graph_key(mc)
            if key in refs:
                continue
            _check_parallel_safe(mc)
            g = _resolve_graph(mc.cell, graph)
            if use_cache is not None:
                path, fingerprint = use_cache.store(g)
                segment = None
                if registry is not None:
                    segment = registry.publish(g, fingerprint)
                    published.append(fingerprint)
                refs[key] = _GraphRef(path=str(path),
                                      fingerprint=fingerprint,
                                      shm=segment)
            else:
                refs[key] = _GraphRef(inline=g)

        # Sinks hold process-local state (open registries, file
        # handles); they neither pickle nor report back, so workers run
        # without them.
        payloads = [
            (MaterialisedCell(mc.index, mc.cell,
                              mc.ctx.with_config(sinks=())),
             refs[_graph_key(mc)], on_error, store)
            for mc in materialised
        ]

        results: dict[int, RunRecord] = {}
        with ProcessPoolExecutor(max_workers=max_workers,
                                 mp_context=_mp_context()) as pool:
            for index, record in pool.map(_worker_run, payloads):
                results[index] = record
        return [results[mc.index] for mc in materialised]
    finally:
        if registry is not None:
            for fingerprint in published:
                registry.release(fingerprint)
