"""Benchmark harness: dataset registry, runners, experiments, reports.

``repro.harness.experiments`` holds one cell grid plus reducer per
table/figure of the paper's evaluation section, each run by calling it
(or ``run_experiment(name)``) through ``run_cells``; the ``benchmarks/``
tree and the CLI both call into it.  See DESIGN.md §4 for the index.

Grid execution lives in :mod:`repro.engine.cells` (``Cell`` /
``run_cells``); this package adds the process-parallel executor
(:mod:`repro.harness.parallel`), the fingerprint-keyed on-disk
:class:`~repro.harness.cache.GraphCache`, the zero-copy shared-memory
graph plane (:mod:`repro.harness.shm`), and the benchmark-regression
gate (:mod:`repro.harness.bench`).
"""

from repro.harness.bench import (
    SUITES,
    compare_reports,
    run_bench,
    validate_bench_report,
    write_bench_report,
)
from repro.harness.cache import GraphCache, default_cache_root
from repro.harness.shm import (
    SharedGraphRegistry,
    SharedGraphSegment,
    default_registry,
    list_orphan_segments,
    shm_enabled,
    unlink_segment,
)
from repro.harness.datasets import (
    DATASETS,
    PLATFORMS,
    DatasetSpec,
    load_dataset,
    scaled_cpu,
    scaled_platform,
    small_datasets,
    large_datasets,
    quality_instance,
    warm_graph_cache,
)
from repro.harness.runners import best_ld_gpu
from repro.harness.sweep import (
    TABLE1_BATCH_COUNTS,
    TABLE1_DEVICE_COUNTS,
    sweep_cells,
    sweep_ld_gpu,
)
from repro.harness.report import format_table

__all__ = [
    "DATASETS",
    "PLATFORMS",
    "DatasetSpec",
    "load_dataset",
    "scaled_cpu",
    "scaled_platform",
    "small_datasets",
    "large_datasets",
    "quality_instance",
    "warm_graph_cache",
    "best_ld_gpu",
    "TABLE1_DEVICE_COUNTS",
    "TABLE1_BATCH_COUNTS",
    "sweep_cells",
    "sweep_ld_gpu",
    "GraphCache",
    "default_cache_root",
    "SharedGraphRegistry",
    "SharedGraphSegment",
    "default_registry",
    "list_orphan_segments",
    "shm_enabled",
    "unlink_segment",
    "SUITES",
    "run_bench",
    "write_bench_report",
    "validate_bench_report",
    "compare_reports",
    "format_table",
]
