"""Grid cells and the one API that runs them.

Every sweep, experiment and benchmark in this repository is the same
shape: a list of *cells* — (algorithm, graph, context overrides) triples
— mapped through :func:`~repro.engine.executor.execute`.  This module
makes that shape first-class:

* :class:`Cell` — one grid point.  References its graph by registry
  dataset name (resolved lazily, so cells stay cheap to build and cheap
  to ship to worker processes) or uses the shared ``graph`` argument of
  :func:`run_cells`.
* :func:`run_cells` — maps ``execute`` over the cells, serially or (with
  ``parallel=N``) on a :class:`~concurrent.futures.ProcessPoolExecutor`
  via :mod:`repro.harness.parallel`.  Results come back in cell order
  either way, and a crashing cell becomes an ``error``
  :class:`~repro.engine.record.RunRecord` instead of killing the grid.
* :func:`derive_cell_seed` — deterministic per-cell seeds: the seed a
  randomised algorithm sees depends only on the context's base seed and
  the cell's position in the grid, never on scheduling order or worker
  count.  This is what makes ``parallel=N`` bit-identical to serial.

The paper's sweeps are embarrassingly parallel across configurations
(cf. Birn et al., arXiv:1302.4587); treating each cell as a composable,
failure-isolated unit (cf. Assadi et al., arXiv:1906.01993) is what the
``RunRecord`` list gives back.
"""

from __future__ import annotations

import functools
import hashlib
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.engine.context import RunContext
from repro.engine.executor import execute
from repro.engine.record import RunRecord
from repro.engine.spec import AlgorithmSpec, get_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.store.db import RunStore

__all__ = [
    "Cell",
    "MaterialisedCell",
    "run_cells",
    "run_materialised_cell",
    "run_one",
    "run_stored_cell",
    "materialise_cells",
    "derive_cell_seed",
    "error_record",
]

#: How long a worker sleeps between store polls while another worker
#: holds the lease on the cell it needs.
STORE_POLL_S = 0.05


@dataclass(frozen=True)
class Cell:
    """One grid point: an algorithm plus how to run it.

    Attributes
    ----------
    algorithm:
        Registry name or an :class:`AlgorithmSpec` object (unregistered
        specs work — :func:`execute` accepts both).
    dataset:
        Registry dataset whose analog (or, with ``quality=True``, whose
        blossom-tractable quality instance) is the input graph.  Cells
        without a dataset use ``build`` when set, else the shared
        ``graph`` passed to :func:`run_cells`.
    build:
        Zero-argument callable producing the input graph, for cells
        whose graph is not a registry dataset (benchmark stress graphs,
        ad-hoc experiments).  Must be a module-level function (or
        otherwise picklable) for ``parallel=N`` runs, and deterministic
        — the parallel path builds it once per distinct callable and
        stages it through the graph cache.  Ignored when ``dataset``
        is set.
    ctx:
        Full per-cell context; ``None`` uses :func:`run_cells`'s base
        context.  Use this when cells span datasets/platforms.
    config:
        :meth:`RunContext.with_config` overrides applied on top of the
        chosen context (``{"num_devices": 4, "num_batches": None}`` —
        key presence is what marks an override, so ``None`` values pass
        through meaningfully).
    overrides:
        Keyword arguments forwarded verbatim to the algorithm callable
        (``{"collect_stats": False}``).
    seed:
        Explicit per-cell seed; ``None`` derives one from the context
        seed via :func:`derive_cell_seed` (or keeps no seed when the
        context has none).
    label:
        Free-form tag recorded in ``RunRecord.extra["label"]``.
    replicate:
        Repeat index for deliberate re-measurement of one configuration
        (bench repeats).  Identical cells share a store fingerprint and
        the second run would be served from the store; distinct
        ``replicate`` values keep each repeat addressable on its own.
    """

    algorithm: Any = "ld_gpu"
    dataset: str | None = None
    quality: bool = False
    build: Any = field(default=None, repr=False)
    ctx: RunContext | None = None
    config: dict[str, Any] = field(default_factory=dict)
    overrides: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    label: str | None = None
    replicate: int | None = None

    @property
    def algorithm_name(self) -> str:
        return self.algorithm.name \
            if isinstance(self.algorithm, AlgorithmSpec) \
            else str(self.algorithm)


@dataclass(frozen=True)
class MaterialisedCell:
    """A cell bound to its grid position and effective context."""

    index: int
    cell: Cell
    ctx: RunContext


def derive_cell_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed seed for grid cell ``index``.

    Stable across processes and Python versions (sha256, not ``hash``),
    so serial and process-parallel execution of the same grid hand every
    randomised algorithm the same seed.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def materialise_cells(
    cells: Iterable[Cell],
    ctx: RunContext | None = None,
) -> list[MaterialisedCell]:
    """Bind each cell to its index and effective context.

    Seed policy: an explicit ``cell.seed`` wins; otherwise a context
    seed is *derived per cell* (:func:`derive_cell_seed`) so repeated
    cells of a randomised algorithm explore independent streams while
    staying reproducible; no context seed means no seed, as with
    :func:`execute`.
    """
    base = ctx if ctx is not None else RunContext()
    out: list[MaterialisedCell] = []
    for i, cell in enumerate(cells):
        ectx = cell.ctx if cell.ctx is not None else base
        if cell.config:
            ectx = ectx.with_config(**cell.config)
        if cell.seed is not None:
            ectx = ectx.with_config(seed=cell.seed)
        elif ectx.seed is not None:
            ectx = ectx.with_config(
                seed=derive_cell_seed(ectx.seed, i))
        out.append(MaterialisedCell(i, cell, ectx))
    return out


def error_record(
    cell: Cell,
    ctx: RunContext,
    graph: "CSRGraph | None",
    exc: BaseException,
    *,
    fingerprint: str | None = None,
    config: dict[str, Any] | None = None,
    started_at: float | None = None,
) -> RunRecord:
    """The ``status="error"`` record standing in for a crashed cell.

    Carries enough configuration to identify the cell in a stored sweep
    (algorithm, graph/dataset, devices/batches/seed) plus the exception
    type, message and formatted traceback.  ``weight``/``matched_edges``
    are zero, ``sim_time`` is ``None`` — consumers filter on
    ``record.ok``.

    ``fingerprint``/``config`` are the cell's store address and full
    normalised configuration (:func:`repro.store.fingerprint.
    fingerprint_for`); when present they land in ``extra`` so the
    failed cell is *re-addressable* — ``store resume`` rebuilds exactly
    this cell from the recorded config and re-runs it.
    """
    name = cell.algorithm_name
    try:
        spec = cell.algorithm if isinstance(cell.algorithm, AlgorithmSpec) \
            else get_spec(name)
    except KeyError:
        spec = None
    extra: dict[str, Any] = {}
    if cell.label is not None:
        extra["label"] = cell.label
    if fingerprint is not None:
        extra["fingerprint"] = fingerprint
    if config is not None:
        extra["cell_config"] = config
    platform = None
    if spec is not None and (spec.needs_platform or spec.needs_device_spec):
        platform = ctx.resolved_platform().name
    return RunRecord(
        algorithm=name,
        graph=graph.name if graph is not None
        else (cell.dataset or "<unresolved>"),
        num_vertices=int(graph.num_vertices) if graph is not None else 0,
        num_directed_edges=int(graph.num_directed_edges)
        if graph is not None else 0,
        weight=0.0,
        matched_edges=0,
        iterations=0,
        sim_time=None,
        wall_time_s=0.0,
        started_at=started_at,
        duration_s=(time.time() - started_at)
        if started_at is not None else None,
        dataset=ctx.dataset if ctx.dataset is not None else cell.dataset,
        platform=platform,
        cpu=ctx.resolved_cpu().name
        if (spec is not None and spec.needs_cpu) else None,
        num_devices=ctx.num_devices
        if (spec is not None and spec.needs_devices) else None,
        num_batches=ctx.num_batches
        if (spec is not None and spec.needs_batches) else None,
        seed=ctx.seed,
        capability_tags=spec.capability_tags if spec is not None else (),
        status="error",
        error={
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(_traceback.format_exception(exc)),
        },
        extra=extra,
    )


def _resolve_graph(cell: Cell, shared: "CSRGraph | None") -> "CSRGraph":
    """The input graph for a cell, built in this process (the serial
    loop, or the parent staging a parallel grid; registry datasets are
    memoised by their ``lru_cache``)."""
    if cell.dataset is not None:
        from repro.harness.datasets import load_dataset, quality_instance

        return quality_instance(cell.dataset) if cell.quality \
            else load_dataset(cell.dataset)
    if cell.build is not None:
        return cell.build()
    if shared is None:
        raise ValueError(
            f"cell {cell.algorithm_name!r} names no dataset or builder "
            "and run_cells received no graph"
        )
    return shared


def run_materialised_cell(mc: MaterialisedCell, graph: "CSRGraph",
                          on_error: str = "record") -> RunRecord:
    """Execute one materialised cell on an already-resolved graph.

    The single cell-execution path shared by the serial loop and the
    process-pool workers — which is what makes their records identical
    field for field.
    """
    cell, ctx = mc.cell, mc.ctx
    started_at = time.time()
    try:
        record = execute(cell.algorithm, graph, ctx, **cell.overrides)
    except Exception as exc:
        if on_error == "raise":
            raise
        fp = config = None
        try:
            from repro.store.fingerprint import fingerprint_for

            fp, config, _ = fingerprint_for(cell, ctx, graph)
        except Exception:
            pass  # never let fingerprinting mask the real failure
        return error_record(cell, ctx, graph, exc,
                            fingerprint=fp, config=config,
                            started_at=started_at)
    if cell.label is not None:
        record.extra["label"] = cell.label
    return record


def run_stored_cell(mc: MaterialisedCell, graph: "CSRGraph",
                    store: "RunStore", on_error: str = "record",
                    ) -> RunRecord:
    """Execute one cell *through* a :class:`~repro.store.db.RunStore`.

    The cell is registered under its content fingerprint, then resolved
    by a claim-or-wait loop:

    * ``done`` row, or under ``on_error="record"`` an out-of-memory
      ``error`` row (:data:`~repro.store.db.FINAL_ERROR`) → the stored
      record is returned bit-identically (zero recompute; a store hit);
    * claimable row (``pending``, previous ``error``, or a stale lease
      left by a dead worker) → this process takes the lease, runs the
      cell, persists the outcome and returns it;
    * row leased by a live worker → poll until that worker's record
      lands, then serve it from the store.

    A crash inside the cell persists a ``status="error"`` record that
    carries the fingerprint and full normalised config (re-claimable
    and re-addressable by ``store resume``).  Interruptions that are
    not ordinary exceptions (``KeyboardInterrupt``, ``SystemExit``)
    release the lease — the cell returns to ``pending`` untouched,
    which is what makes killed sweeps resumable.
    """
    from repro.store.fingerprint import fingerprint_for

    fp, config, gfp = fingerprint_for(mc.cell, mc.ctx, graph)
    store.register(fp, algorithm=mc.cell.algorithm_name, config=config,
                   seed=mc.ctx.seed, graph_fingerprint=gfp,
                   dataset=mc.cell.dataset or mc.ctx.dataset)
    while True:
        cached = store.lookup(fp)
        if cached is not None and (cached.ok or on_error != "raise"):
            return cached
        if store.claim(fp):
            started_at = time.time()
            try:
                record = run_materialised_cell(mc, graph,
                                               on_error="raise")
            except Exception as exc:
                record = error_record(mc.cell, mc.ctx, graph, exc,
                                      fingerprint=fp, config=config,
                                      started_at=started_at)
                store.complete(fp, record)
                if on_error == "raise":
                    raise
                return record
            except BaseException:
                store.release(fp)
                raise
            store.complete(fp, record)
            return record
        time.sleep(STORE_POLL_S)


def run_one(mc: MaterialisedCell, load: "Callable[[], CSRGraph]",
            on_error: str, store: "RunStore | None") -> RunRecord:
    """Load the cell's graph, then execute it (through ``store`` when
    given) with failure isolation; the serial loop and the process-pool
    workers differ only in ``load``."""
    try:
        graph = load()
    except Exception as exc:
        if on_error == "raise":
            raise
        return error_record(mc.cell, mc.ctx, None, exc)
    if store is not None:
        return run_stored_cell(mc, graph, store, on_error)
    return run_materialised_cell(mc, graph, on_error)


def run_cells(
    cells: Sequence[Cell],
    ctx: RunContext | None = None,
    *,
    graph: "CSRGraph | None" = None,
    parallel: int = 0,
    on_error: str = "record",
    cache: Any = None,
    store: Any = None,
    shm: Any = None,
) -> list[RunRecord]:
    """Run every cell and return its :class:`RunRecord`, in cell order.

    Parameters
    ----------
    cells:
        The grid.  Cells reference graphs by ``dataset`` name or fall
        back to the shared ``graph``.
    ctx:
        Base context for cells without their own (default
        ``RunContext()``).
    parallel:
        ``0`` (default) runs in-process; ``N >= 1`` fans the cells out
        to ``N`` worker processes (:mod:`repro.harness.parallel`).
        Results are bit-identical to the serial path — deterministic
        per-cell seeds, order-preserving collection — but context
        ``sinks`` are **not** notified from workers (attach sinks only
        to serial runs, or aggregate from the returned records).
    on_error:
        ``"record"`` (default) turns a crashing cell into an ``error``
        record (:func:`error_record`); ``"raise"`` propagates the first
        failure, killing the rest of the grid.
    cache:
        Parallel path only: a :class:`~repro.harness.cache.GraphCache`
        staging graphs on disk for the workers, ``None`` for the
        default cache, or ``False`` to ship graphs by pickle instead.
    shm:
        Parallel path only: ``None`` (default) also publishes staged
        graphs into shared memory so workers attach zero-copy views
        instead of re-reading ``.npz`` snapshots (disable globally with
        ``REPRO_SHM=off``); ``False`` forces disk-only staging; a
        :class:`~repro.harness.shm.SharedGraphRegistry` pins segment
        ownership to that registry.
    store:
        A :class:`~repro.store.db.RunStore` (or a database path) making
        the grid *durable*: every cell is registered under its content
        fingerprint, cells already ``done`` are served from the store
        bit-identically (so are out-of-memory outcomes under
        ``on_error="record"``), only ``pending``/failed/stale cells
        execute, and every completed record is persisted
        (:func:`run_stored_cell`).  ``None`` keeps the grid ephemeral.
        Store-served records have ``result=None`` — the in-memory
        :class:`~repro.engine.record.MatchResult` is never serialised —
        so consumers needing per-component numbers read
        ``record.timeline_totals``.

    Returns
    -------
    list[RunRecord]
        One record per cell, order-aligned with ``cells``.  Check
        ``record.ok`` before using result fields.
    """
    if on_error not in ("record", "raise"):
        raise ValueError(f"on_error must be 'record' or 'raise', "
                         f"got {on_error!r}")
    if store is not None:
        from repro.store.db import resolve_store

        store = resolve_store(store, use_env=False)
    materialised = materialise_cells(cells, ctx)
    if parallel and parallel >= 1:
        from repro.harness.parallel import run_cells_parallel

        return run_cells_parallel(
            materialised, graph=graph, max_workers=int(parallel),
            on_error=on_error, cache=cache, store=store, shm=shm,
        )
    return [run_one(mc, functools.partial(_resolve_graph, mc.cell, graph),
                    on_error, store) for mc in materialised]
