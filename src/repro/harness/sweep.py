"""Configuration sweeps over (devices × batches × platforms).

The paper's reporting protocol is "best over a sweep" (Table I's caption,
Fig. 4's method); this module makes that protocol a first-class object so
the CLI, benches and users run identical grids and get back a tidy table
of every configuration — not just the winner.

Sweeps are cell grids: :func:`sweep_ld_gpu` builds one
:class:`~repro.engine.cells.Cell` per configuration and maps them
through :func:`~repro.engine.cells.run_cells` — serially by default,
process-parallel with ``parallel=N`` (bit-identical results, see
:mod:`repro.harness.parallel`).  A cell that fails — out-of-memory or
any other crash — becomes an ``error`` record and a ``time_s=None``
point instead of killing the grid, mirroring how the paper reports
infeasible runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.engine.cells import Cell, run_cells
from repro.engine.context import RunContext
from repro.engine.record import RunRecord
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_A100, PlatformSpec
from repro.graph.csr import CSRGraph
from repro.harness.report import format_table

__all__ = [
    "TABLE1_DEVICE_COUNTS",
    "TABLE1_BATCH_COUNTS",
    "SweepPoint",
    "SweepResult",
    "sweep_cells",
    "sweep_ld_gpu",
]

#: The paper's Table I reporting grid: device counts swept for the
#: best-time protocol (``best_ld_gpu``) and by the full experiments.
TABLE1_DEVICE_COUNTS: tuple[int, ...] = (1, 2, 4, 6, 8)

#: Batch counts of the same protocol — auto-fit plus every studied
#: count below 15 (the caption's "batches < 15").
TABLE1_BATCH_COUNTS: tuple[int | None, ...] = (None, 2, 3, 5, 10, 14)


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's outcome (``time_s`` is None on OOM/error)."""

    platform: str
    num_devices: int
    num_batches: int | None
    time_s: float | None
    iterations: int | None
    comm_fraction: float | None

    @property
    def ok(self) -> bool:
        return self.time_s is not None


@dataclass
class SweepResult:
    """All points of a sweep plus the winner.

    ``records`` holds the full :class:`RunRecord` per cell (aligned
    with ``points``), including ``status="error"`` records for failed
    cells — inspect ``record.error`` to distinguish an OOM from a bug.

    With ``collect_metrics=True`` each cell's telemetry snapshot lands
    in ``cell_snapshots`` (aligned with ``points``; failed cells get an
    empty snapshot) and ``metrics`` holds the sweep-level aggregate —
    histograms (span durations, kernel costs) merged across every cell
    of the grid.
    """

    graph_name: str
    points: list[SweepPoint] = field(default_factory=list)
    records: list[RunRecord] = field(default_factory=list)
    cell_snapshots: list[Any] = field(default_factory=list)
    metrics: Any | None = None

    @property
    def best(self) -> SweepPoint:
        """The fastest point, chosen by the one best-over-grid rule
        (:func:`~repro.harness.runners.fastest`: least ``sim_time``,
        the first on ties); raises ``DeviceOOMError`` when no point
        ran."""
        from repro.harness.runners import fastest

        ran = [r if p.ok else None
               for p, r in zip(self.points, self.records)]
        win = fastest(ran)
        if win is None:
            raise DeviceOOMError("sweep", 0, 0, 0)
        return self.points[next(i for i, r in enumerate(ran) if r is win)]

    def render(self) -> str:
        rows = [
            [p.platform, p.num_devices,
             p.num_batches if p.num_batches is not None else "auto",
             p.time_s, p.iterations,
             100.0 * p.comm_fraction if p.comm_fraction is not None
             else None]
            for p in self.points
        ]
        return format_table(
            ["platform", "#GPUs", "#batches", "time (s)", "iters",
             "comm %"],
            rows, floatfmt=".4f",
            title=f"LD-GPU sweep on {self.graph_name}",
        )


def sweep_cells(
    platforms: Iterable[PlatformSpec] = (DGX_A100,),
    device_counts: Iterable[int] = TABLE1_DEVICE_COUNTS,
    batch_counts: Iterable[int | None] = (None,),
    algorithm: str = "ld_gpu",
    **overrides: Any,
) -> list[Cell]:
    """The cell grid of a sweep: platforms × devices × batches.

    Device counts beyond a platform's ``max_devices`` are skipped, as
    in the paper's protocol.  ``overrides`` are forwarded to every
    cell's algorithm call.
    """
    cells: list[Cell] = []
    for plat in platforms:
        for nd in device_counts:
            if nd > plat.max_devices:
                continue
            for nb in batch_counts:
                cells.append(Cell(
                    algorithm,
                    config={"platform": plat, "num_devices": nd,
                            "num_batches": nb},
                    overrides=dict(overrides),
                ))
    return cells


def _point_for(cell: Cell, record: RunRecord) -> SweepPoint:
    plat_name = cell.config["platform"].name
    if not record.ok:
        return SweepPoint(plat_name, cell.config["num_devices"],
                          cell.config["num_batches"], None, None, None)
    # Records served from a run store carry no in-memory result —
    # the communication split reads from the serialised totals either
    # way, so store-resumed sweeps render identical tables.
    from repro.gpusim.timeline import comm_fraction_from_totals

    comm = comm_fraction_from_totals(record.timeline_totals) \
        if record.timeline_totals else None
    return SweepPoint(
        plat_name, record.num_devices, record.num_batches,
        record.sim_time, record.iterations, comm,
    )


def sweep_ld_gpu(
    graph: CSRGraph,
    platforms: Iterable[PlatformSpec] = (DGX_A100,),
    device_counts: Iterable[int] = TABLE1_DEVICE_COUNTS,
    batch_counts: Iterable[int | None] = (None,),
    collect_metrics: bool = False,
    parallel: int = 0,
    seed: int | None = None,
    store: Any = None,
    dataset: str | None = None,
    **ld_kwargs: Any,
) -> SweepResult:
    """Run LD-GPU over the configuration grid.

    Failed configurations (OOM, crashes) become points with
    ``time_s=None`` (rendered '-'), mirroring how the paper reports
    infeasible runs; the failure detail stays on the aligned ``error``
    record in :attr:`SweepResult.records`.

    ``parallel=N`` fans the grid out to N worker processes with results
    bit-identical to the serial path.  With ``collect_metrics=True``
    every cell runs under a fresh
    :class:`~repro.telemetry.MetricsRegistry`; per-cell snapshots and
    the cross-cell aggregate land on the returned :class:`SweepResult`
    (see :attr:`SweepResult.metrics`).  Metrics collection is
    process-local, so it forces serial execution.  ``seed`` sets the
    base of the deterministic per-cell seed derivation (LD-GPU itself
    is deterministic; the seed matters for randomised algorithms run
    through :func:`sweep_cells` grids).  ``store`` (a
    :class:`~repro.store.db.RunStore` or database path) makes the sweep
    durable and resumable: finished configurations are served from the
    store with zero recompute, and an interrupted sweep picks up where
    it left off (``repro-matching store resume``).  ``dataset`` names
    the registry dataset ``graph`` was loaded from, when it was: the
    name lands on the context (and so in each cell's stored config),
    which is what lets ``store resume`` reload the graph for cells
    that received it in-process.
    """
    cells = sweep_cells(platforms, device_counts, batch_counts,
                        collect_stats=False, **ld_kwargs)
    sink = None
    if collect_metrics:
        from repro.engine.sinks import MetricsSink

        if parallel:
            import warnings

            warnings.warn(
                "collect_metrics runs the sweep serially: metric "
                "registries are process-local and cannot report back "
                "from parallel workers",
                RuntimeWarning, stacklevel=2,
            )
            parallel = 0
        if store is not None:
            import warnings

            warnings.warn(
                "collect_metrics disables the run store for this "
                "sweep: store-served cells never execute, so their "
                "per-cell metric snapshots cannot exist",
                RuntimeWarning, stacklevel=2,
            )
            store = None
        sink = MetricsSink()
        ctx = RunContext(seed=seed, dataset=dataset, sinks=(sink,))
    else:
        ctx = RunContext(seed=seed, dataset=dataset)

    records = run_cells(cells, ctx, graph=graph, parallel=parallel,
                        store=store)

    result = SweepResult(graph.name, records=records)
    for cell, record in zip(cells, records):
        result.points.append(_point_for(cell, record))

    if collect_metrics:
        from repro.telemetry import MetricsRegistry, aggregate_snapshots

        ok_snapshots = iter(sink.snapshots)
        for record in records:
            result.cell_snapshots.append(
                next(ok_snapshots) if record.ok
                else MetricsRegistry().snapshot()
            )
        result.metrics = aggregate_snapshots(result.cell_snapshots)
    return result
