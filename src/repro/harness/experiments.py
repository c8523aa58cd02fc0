"""One entry point per table/figure of the paper's evaluation (§IV).

Each is an :class:`Experiment`: ``cells(quick)`` lists its cell grid and
``reduce(cells, records)`` renders the records into an
:class:`ExperimentResult` whose rows mirror the table's columns (or the
figure's series).  Reducers read only record fields, so a store-served
grid renders identically.  Calling an experiment is the one driver;
:func:`run_experiment` calls one by name.

``quick=True`` shrinks the dataset/configuration sweep for use in the
test suite; the benchmarks run the full versions.  Times reported here
are the simulator's modeled seconds (see DESIGN.md §2); the *shapes* —
who wins, scaling curves, crossovers — are the reproduction targets,
not the absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.engine import RunContext
from repro.engine.cells import Cell, run_cells
from repro.engine.record import RunRecord, _coerce
from repro.gpusim.spec import DGX_2, DGX_A100, DGX_A100_PCIE
from repro.gpusim.timeline import COMPONENTS, fractions_from_totals
from repro.harness.datasets import large_datasets, scale_factor, \
    small_datasets
from repro.harness.report import format_table
from repro.harness.runners import check_lemma, checked, fastest
from repro.harness.sweep import TABLE1_BATCH_COUNTS, TABLE1_DEVICE_COUNTS
from repro.metrics.fom import mmeps
from repro.metrics.quality import geometric_mean, percent_below_optimal
from repro.metrics.workstats import iterations_below_fraction

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "run_experiment",
    "table1_execution_times",
    "table2_quality",
    "table3_a100_vs_v100",
    "table4_single_gpu",
    "table5_cugraph",
    "table6_fom",
    "fig4_strong_scaling",
    "fig5_components",
    "fig6_batch_scaling",
    "fig7_kmer_components",
    "fig8_warp_work",
    "fig9_interconnect",
    "fig10_platforms",
    "fig11_occupancy",
]


@dataclass
class ExperimentResult:
    """A rendered experiment: headers + rows (+ free-form extras)."""

    name: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    extra: dict[str, Any] = field(default_factory=dict)

    def render(self, floatfmt: str = ".4g") -> str:
        """Aligned text table (what the bench harness prints)."""
        return format_table(self.headers, self.rows, floatfmt=floatfmt,
                            title=self.title)

    def to_json(self) -> dict:
        """Machine-readable form (numpy values coerced to Python)."""
        return {
            "name": self.name,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[_coerce(c) for c in row] for row in self.rows],
        }

    def save_json(self, path) -> None:
        """Write :meth:`to_json` to ``path``."""
        import json

        with open(path, "wt") as fh:
            json.dump(self.to_json(), fh, indent=1)


Records = list["RunRecord | None"]


@dataclass(frozen=True)
class Experiment:
    """A paper table or figure: which cells to run, how to reduce them.

    ``reduce`` receives the cells and their records in grid order, with
    ``None`` for an out-of-memory cell.  Calling the experiment runs it.
    """

    name: str
    cells: Callable[[bool], list[Cell]]
    reduce: Callable[[list[Cell], Records], ExperimentResult]

    def __call__(self, quick: bool = False, parallel: int = 0,
                 store: Any = None) -> ExperimentResult:
        """Run the grid through :func:`run_cells` (``parallel``/``store``
        as there), then :func:`checked`, :func:`check_lemma`, reduce."""
        cells = self.cells(quick)
        records = checked(run_cells(cells, parallel=parallel, store=store))
        check_lemma(records)
        return self.reduce(cells, records)


def run_experiment(name: str, quick: bool = False, parallel: int = 0,
                   store: Any = None) -> ExperimentResult:
    """Run the registered experiment ``name`` (:data:`EXPERIMENTS`)."""
    return EXPERIMENTS[name](quick, parallel, store)


_NO_STATS = {"collect_stats": False}


def _sweeps(quick: bool):
    """(devices, batches) of a best-over-grid experiment: the paper's
    Table I protocol (see repro.harness.sweep), reduced when quick."""
    return ((1, 2, 4), (None, 3)) if quick else \
        (TABLE1_DEVICE_COUNTS, TABLE1_BATCH_COUNTS)


def _pick(names: list[str], quick: bool, k: int = 3) -> list[str]:
    return names[:k] if quick else names


def _ld_grid(name: str, devices: Iterable[int],
             batches: Iterable[int | None], **overrides: Any) -> list[Cell]:
    """LD-GPU cells of dataset ``name`` over devices × batches."""
    ctx = RunContext.for_dataset(name)
    return [Cell("ld_gpu", dataset=name, ctx=ctx,
                 config={"num_devices": nd, "num_batches": nb},
                 overrides={**_NO_STATS, **overrides})
            for nd in devices for nb in batches]


def _group(cells: list[Cell], records: Records,
           key: Callable[[Cell], Any] = lambda c: c.dataset,
           ) -> dict[Any, Records]:
    """Records grouped by ``key(cell)``, groups and members in grid
    order."""
    out: dict[Any, Records] = {}
    for cell, record in zip(cells, records):
        out.setdefault(key(cell), []).append(record)
    return out


def _unique(values: Iterable[Any]) -> list[Any]:
    return list(dict.fromkeys(values))


def _time(r: RunRecord | None) -> float | None:
    return r.sim_time if r is not None else None


def _ratio(a: float | None, b: float | None) -> float | None:
    return a / b if a is not None and b is not None else None


def _percentages(r: RunRecord) -> list[float]:
    # Serialised totals, not r.result — store-served records carry no
    # in-memory result and must render identically.
    f = fractions_from_totals(r.timeline_totals or {})
    return [100.0 * f[c] for c in COMPONENTS]


def _table1_cells(quick: bool) -> list[Cell]:
    devices, batches = _sweeps(quick)
    cells: list[Cell] = []
    for name in _pick(large_datasets(), quick, 2) + \
            _pick(small_datasets(), quick, 2):
        ctx = RunContext.for_dataset(name)
        cells += [Cell("sr_omp", dataset=name, ctx=ctx),
                  Cell("sr_gpu", dataset=name, ctx=ctx)]
        cells += _ld_grid(name, devices, batches)
    return cells


def _table1_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Table I (right): best times for SR-OMP / SR-GPU / LD-GPU and the
    LD-GPU speedups.  '-' marks out-of-memory, as in the paper."""
    rows = []
    for name, (omp, sr, *grid) in _group(cells, records).items():
        ld = fastest(grid)
        rows.append([
            name, _time(omp), _time(sr), _time(ld),
            ld.num_devices if ld else None, ld.num_batches if ld else None,
            _ratio(_time(omp), _time(ld)), _ratio(_time(sr), _time(ld)),
        ])
    return ExperimentResult(
        "table1",
        "Table I: best execution times (modeled s) and LD-GPU speedups",
        ["graph", "SR-OMP", "SR-GPU", "LD-GPU", "#GPUs", "#batches",
         "vs SR-OMP", "vs SR-GPU"],
        rows,
    )


def _table2_cells(quick: bool) -> list[Cell]:
    ctx = RunContext(platform=DGX_A100, num_devices=1)
    return [Cell(alg, dataset=name, quality=True, ctx=ctx,
                 overrides=_NO_STATS if alg == "ld_gpu" else {})
            for name in _pick(small_datasets(), quick)
            for alg in ("blossom", "ld_gpu", "sr_omp")]


def _table2_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Table II: %-difference of LD-GPU and SR-OMP weights from the exact
    blossom (LEMON) optimum on the SMALL quality instances.  The blossom
    cells' wall times land in ``extra["lemon_seconds"]``."""
    rows = []
    lemon_seconds = {}
    for name, (opt, ld, sr) in _group(cells, records).items():
        lemon_seconds[name] = opt.wall_time_s
        rows.append([name, percent_below_optimal(ld.weight, opt.weight),
                     percent_below_optimal(sr.weight, opt.weight)])
    rows.append(["Geo. Mean", geometric_mean(r[1] for r in rows),
                 geometric_mean(r[2] for r in rows)])
    return ExperimentResult(
        "table2",
        "Table II: % weight below optimal (lower is better)",
        ["graph", "LD-GPU", "SR-OMP"],
        rows,
        extra={"lemon_seconds": lemon_seconds},
    )


_TABLE3_GRAPHS = ["Queen_4147", "mycielskian18", "com-Orkut", "kmer_U1a",
                  "kmer_V2a", "mouse_gene"]


def _table3_cells(quick: bool) -> list[Cell]:
    return [Cell("ld_gpu", dataset=name,
                 ctx=RunContext.for_dataset(name, platform=plat),
                 overrides=_NO_STATS)
            for name in _pick(_TABLE3_GRAPHS, quick)
            for plat in (DGX_A100, DGX_2)]


def _table3_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Table III: single-GPU LD-GPU speedup of A100 over V100."""
    rows = [[name, _ratio(_time(v), _time(a))]
            for name, (a, v) in _group(cells, records).items()]
    rows.append(["Geo. Mean", geometric_mean(r[1] for r in rows)])
    return ExperimentResult(
        "table3",
        "Table III: LD-GPU speedup on a single A100 vs V100",
        ["graph", "A100 speedup"],
        rows,
    )


_TABLE4_GRAPHS = ["com-Friendster", "Queen_4147", "mycielskian18", "HV15R",
                  "com-Orkut", "kmer_U1a", "kmer_V2a", "mouse_gene"]


def _table4_cells(quick: bool) -> list[Cell]:
    cells: list[Cell] = []
    for name in _pick(_TABLE4_GRAPHS, quick):
        ctx = RunContext.for_dataset(name)
        cells += [Cell("ld_gpu", dataset=name, ctx=ctx, overrides=_NO_STATS),
                  Cell("sr_gpu", dataset=name, ctx=ctx)]
    return cells


def _table4_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Table IV: single-GPU runtimes; SR-GPU's vertex-per-warp tuning wins
    on regular graphs, LD-GPU stays competitive on irregular ones."""
    return ExperimentResult(
        "table4",
        "Table IV: single-GPU runtime (modeled s)",
        ["graph", "LD-GPU", "SR-GPU"],
        [[name, _time(ld), _time(sr)]
         for name, (ld, sr) in _group(cells, records).items()],
    )


_TABLE5_GRAPHS = ["Queen_4147", "mycielskian18", "com-Orkut", "kmer_U1a",
                  "kmer_V2a"]


def _table5_cells(quick: bool) -> list[Cell]:
    cells: list[Cell] = []
    for name in _pick(_TABLE5_GRAPHS, quick):
        ctx = RunContext.for_dataset(name, num_devices=4)
        cells += [Cell("ld_gpu", dataset=name, ctx=ctx,
                       config={"num_batches": 1}, overrides=_NO_STATS),
                  Cell("cugraph", dataset=name, ctx=ctx)]
    return cells


def _table5_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Table V: 4-GPU LD-GPU (single batch) vs the cuGraph MG model."""
    return ExperimentResult(
        "table5",
        "Table V: LD-GPU vs cuGraph on 4 GPUs (modeled s)",
        ["graph", "LD-GPU", "cuGraph", "cuGraph/LD"],
        [[name, _time(ld), _time(cu), _ratio(_time(cu), _time(ld))]
         for name, (ld, cu) in _group(cells, records).items()],
    )


_TABLE6_GRAPHS = ["AGATHA-2015", "MOLIERE_2016", "GAP-urand", "GAP-kron",
                  "com-Friendster", "kmer_U1a"]


def _table6_cells(quick: bool) -> list[Cell]:
    devices, batches = _sweeps(quick)
    cells: list[Cell] = []
    for name in _pick(_TABLE6_GRAPHS, quick):
        cells += _ld_grid(name, devices, batches)
        cells.append(Cell("sr_omp", dataset=name,
                          ctx=RunContext.for_dataset(name)))
    return cells


def _table6_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Table VI: Mega-Matching-Edges-per-Second (higher is better).

    Times are paper-scale (bandwidth-scaled platforms), so matched edges
    are converted to paper scale too — an analog edge represents
    ``1/scale_factor`` original edges — keeping MMEPS magnitudes
    comparable with the paper's.
    """
    rows = []
    for name, (*grid, omp) in _group(cells, records).items():
        s = scale_factor(name)
        rows.append([name] + [
            _ratio(mmeps(r), s) if r is not None else None
            for r in (fastest(grid), omp)])
    return ExperimentResult(
        "table6",
        "Table VI: MMEPS figure of merit (higher is better)",
        ["graph", "LD-GPU", "SR-OMP"],
        rows,
    )


def _fig4_cells(quick: bool) -> list[Cell]:
    devices = (1, 2, 4) if quick else (1, 2, 3, 4, 5, 6, 7, 8)
    _, batches = _sweeps(quick)
    return [cell for name in _pick(large_datasets(), quick, 2)
            for cell in _ld_grid(name, devices, batches)]


def _fig4_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 4: LD-GPU time on 1–8 A100s (best over batch counts <15)."""
    devices = _unique(c.config["num_devices"] for c in cells)
    best = _group(cells, records,
                  lambda c: (c.dataset, c.config["num_devices"]))
    rows = []
    series: dict[str, list[float | None]] = {}
    for name in _unique(c.dataset for c in cells):
        times = [_time(fastest(best[name, nd])) for nd in devices]
        series[name] = times
        rows.append([name] + [_ratio(times[0], t) for t in times])
    return ExperimentResult(
        "fig4",
        "Fig. 4: strong-scaling speedup vs 1 GPU "
        f"(devices {list(devices)})",
        ["graph"] + [f"{d}GPU" for d in devices],
        rows,
        extra={"times": series, "devices": list(devices)},
    )


def _fig5_cells(quick: bool) -> list[Cell]:
    devices = (1, 4) if quick else (1, 2, 4, 8)
    return [cell for name in _pick(large_datasets(), quick, 1) +
            _pick(small_datasets(), quick, 1)
            for cell in _ld_grid(name, devices, (None,))]


def _fig5_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 5: % of total time per component across devices."""
    return ExperimentResult(
        "fig5",
        "Fig. 5: component-wise % of execution time",
        ["graph", "#GPUs"] + list(COMPONENTS),
        [[cell.dataset, cell.config["num_devices"]] + _percentages(r)
         for cell, r in zip(cells, records) if r is not None],
    )


_BATCH_STUDY_GRAPHS = ["kmer_U1a", "mycielskian18", "kmer_V2a"]


def _forced_batches(names: list[str], devices: tuple[int, ...],
                    quick: bool) -> list[Cell]:
    """Forced-batching LD-GPU cells, batch count outer, devices inner."""
    batch_counts = (1, 3) if quick else (1, 3, 5, 10)
    return [cell for name in names for nb in batch_counts
            for cell in _ld_grid(name, devices, (nb,),
                                 force_streaming=True)]


def _fig6_cells(quick: bool) -> list[Cell]:
    return _forced_batches(_pick(_BATCH_STUDY_GRAPHS, quick, 1),
                           (1, 2, 4) if quick else (1, 2, 4, 8), quick)


def _fig6_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 6: forcing 1/3/5/10 batches on SMALL inputs across devices."""
    devices = _unique(c.config["num_devices"] for c in cells)
    rows = [[name, nb] + [_time(r) for r in rs]
            for (name, nb), rs in _group(
                cells, records,
                lambda c: (c.dataset, c.config["num_batches"])).items()]
    return ExperimentResult(
        "fig6",
        f"Fig. 6: LD-GPU time (modeled s) by #batches, devices "
        f"{list(devices)}",
        ["graph", "#batches"] + [f"{d}GPU" for d in devices],
        rows,
        extra={"devices": list(devices)},
    )


def _fig7_cells(quick: bool) -> list[Cell]:
    return _forced_batches(["kmer_U1a"],
                           (1, 4) if quick else (1, 2, 4, 8), quick)


def _fig7_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 7: kmer_U1a component breakdown under forced batching."""
    return ExperimentResult(
        "fig7",
        "Fig. 7: kmer_U1a component-wise % by #batches / #GPUs",
        ["#batches", "#GPUs"] + list(COMPONENTS),
        [[cell.config["num_batches"], cell.config["num_devices"]] +
         _percentages(r) for cell, r in zip(cells, records)
         if r is not None],
    )


def _fig8_cells(quick: bool) -> list[Cell]:
    return [Cell("ld_gpu", dataset=name,
                 ctx=RunContext.for_dataset(name, num_devices=4))
            for name in _pick(large_datasets(), quick, 1) +
            _pick(small_datasets(), quick, 2)]


def _fig8_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 8: per-iteration % of edges accessed; the paper's headline is
    that <20% of edges are touched in ≥90% of iterations."""
    rows = []
    series = {}
    for cell, r in zip(cells, records):
        if r is None:
            continue
        scanned = np.asarray(r.extra["edges_scanned"])
        frac = scanned / r.num_directed_edges
        series[cell.dataset] = frac
        rows.append([
            cell.dataset,
            r.iterations,
            100.0 * float(frac.mean()),
            100.0 * float(frac.std()),
            100.0 * iterations_below_fraction(
                scanned, r.num_directed_edges, 0.2),
        ])
    return ExperimentResult(
        "fig8",
        "Fig. 8: warp-edge work across iterations",
        ["graph", "iters", "mean %edges", "std %edges",
         "%iters <20% edges"],
        rows,
        extra={"series": series},
    )


def _fig9_cells(quick: bool) -> list[Cell]:
    return [Cell("ld_gpu", dataset=name,
                 ctx=RunContext.for_dataset(name, platform=plat),
                 config={"num_devices": nd}, overrides=_NO_STATS)
            for name in _pick(large_datasets(), quick, 2) +
            _pick(small_datasets(), quick, 1)
            for nd in ((2, 4) if quick else (2, 4, 8))
            for plat in (DGX_A100, DGX_A100_PCIE)]


def _fig9_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 9: execution-time speedup of NVLink over PCIe."""
    devices = _unique(c.config["num_devices"] for c in cells)
    rows: dict[str, list[Any]] = {}
    speedups = []
    for (name, _), (nv, pc) in _group(
            cells, records,
            lambda c: (c.dataset, c.config["num_devices"])).items():
        s = _ratio(_time(pc), _time(nv))
        if s is not None:
            speedups.append(s)
        rows.setdefault(name, [name]).append(s)
    return ExperimentResult(
        "fig9",
        "Fig. 9: NVLink-over-PCIe speedup",
        ["graph"] + [f"{d}GPU" for d in devices],
        list(rows.values()),
        extra={"all_speedups": speedups},
    )


_FIG10_GRAPHS = ["GAP-kron", "com-Friendster"]


def _fig10_cells(quick: bool) -> list[Cell]:
    a_devices = (1, 4) if quick else (1, 2, 4, 8)
    v_devices = (1, 4) if quick else (1, 2, 4, 8, 16)
    return [Cell("ld_gpu", dataset=name,
                 ctx=RunContext.for_dataset(name, platform=plat),
                 config={"num_devices": nd}, overrides=_NO_STATS,
                 label=plat.name)
            for name in _pick(_FIG10_GRAPHS, quick, 1)
            for plat, devices in ((DGX_A100, a_devices), (DGX_2, v_devices))
            for nd in devices]


def _fig10_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 10: LD-GPU scalability on DGX-A100 (8×A100) vs DGX-2
    (16×V100)."""
    return ExperimentResult(
        "fig10",
        "Fig. 10: DGX-A100 vs DGX-2 scalability (modeled s)",
        ["graph", "platform", "#GPUs", "#batches", "time"],
        [[cell.dataset, cell.label, cell.config["num_devices"],
          r.num_batches, r.sim_time]
         for cell, r in zip(cells, records) if r is not None],
    )


def _fig11_cells(quick: bool) -> list[Cell]:
    # Naming the default keeps these cells' fingerprints apart from
    # plain ld_gpu runs stored before their records carried occupancy.
    return [Cell("ld_gpu", dataset=name, ctx=RunContext.for_dataset(name),
                 overrides={"collect_stats": True})
            for name in _pick(large_datasets(), quick, 1) +
            _pick(small_datasets(), quick, 2)]


def _fig11_reduce(cells: list[Cell], records: Records) -> ExperimentResult:
    """Fig. 11: SM occupancy through the iteration progression; the
    outliers (mycielskian18, mouse_gene) collapse in the late
    iterations."""
    rows = []
    series = {}
    for cell, r in zip(cells, records):
        if r is None:
            continue
        occ = np.asarray(r.extra["occupancy"])
        series[cell.dataset] = occ
        half = occ[len(occ) // 2 :]
        rows.append([
            cell.dataset,
            r.iterations,
            100.0 * float(occ.mean()),
            100.0 * float(occ[: max(1, len(occ) // 2)].mean()),
            100.0 * float(half.mean()) if len(half) else None,
            100.0 * float(occ.min()),
        ])
    return ExperimentResult(
        "fig11",
        "Fig. 11: SM occupancy (%) over iterations",
        ["graph", "iters", "mean", "first-half", "second-half", "min"],
        rows,
        extra={"series": series},
    )


table1_execution_times = Experiment("table1", _table1_cells, _table1_reduce)
table2_quality = Experiment("table2", _table2_cells, _table2_reduce)
table3_a100_vs_v100 = Experiment("table3", _table3_cells, _table3_reduce)
table4_single_gpu = Experiment("table4", _table4_cells, _table4_reduce)
table5_cugraph = Experiment("table5", _table5_cells, _table5_reduce)
table6_fom = Experiment("table6", _table6_cells, _table6_reduce)
fig4_strong_scaling = Experiment("fig4", _fig4_cells, _fig4_reduce)
fig5_components = Experiment("fig5", _fig5_cells, _fig5_reduce)
fig6_batch_scaling = Experiment("fig6", _fig6_cells, _fig6_reduce)
fig7_kmer_components = Experiment("fig7", _fig7_cells, _fig7_reduce)
fig8_warp_work = Experiment("fig8", _fig8_cells, _fig8_reduce)
fig9_interconnect = Experiment("fig9", _fig9_cells, _fig9_reduce)
fig10_platforms = Experiment("fig10", _fig10_cells, _fig10_reduce)
fig11_occupancy = Experiment("fig11", _fig11_cells, _fig11_reduce)

#: Name → experiment, in ``__all__`` order: the one registry
#: ``repro experiment`` and ``repro list experiments`` read.
EXPERIMENTS: dict[str, Experiment] = {
    e.name: e for e in map(globals().get, __all__)
    if isinstance(e, Experiment)}
