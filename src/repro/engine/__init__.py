"""Unified algorithm registry and execution-context layer.

The engine is the one structured path from "an algorithm name and a
graph" to "a uniform structured result":

* :class:`AlgorithmSpec` — a registered algorithm with declared parameter
  needs (platform / devices / batches / CPU / seed) and capability tags
  (``simulator_backed``, ``exact``, ``approx_ratio=...``).  Specs are
  registered next to each implementation in :mod:`repro.matching`.
* :class:`RunContext` — owns platform selection and the paper's
  memory-scaling protocol (:meth:`RunContext.for_dataset`), the RNG
  seed, and pluggable instrumentation sinks.
* :func:`execute` — binds context kwargs via :meth:`AlgorithmSpec.bind`,
  runs, notifies sinks, and returns a :class:`RunRecord`.
* :class:`RunRecord` — the JSON-serialisable outcome (the CLI's
  ``--json`` output and the harness's machine-readable results).
* :class:`Cell` / :func:`run_cells` — grids of runs as data: every
  sweep, experiment and benchmark maps ``execute`` over a cell list,
  serially or process-parallel (``parallel=N``), with per-cell failure
  isolation and deterministic per-cell seeds.

Example::

    from repro.engine import RunContext, execute
    from repro.harness.datasets import load_dataset

    g = load_dataset("mouse_gene")
    ctx = RunContext.for_dataset("mouse_gene", num_devices=4)
    record = execute("ld_gpu", g, ctx)
    print(record.to_json(indent=1))

Adding a new backend (say a real CuPy executor next to the ``gpusim``
cost model) is one more :func:`register` call — every entry point (CLI,
experiments, sweeps, benchmarks) picks it up with zero dispatch code.
"""

from repro.engine.errors import (
    ConfigurationDivergenceError,
    EngineError,
    UnknownAlgorithmError,
)
from repro.engine.spec import (
    AlgorithmSpec,
    algorithm_names,
    algorithm_specs,
    get_spec,
    register,
)
from repro.engine.context import RunContext
from repro.engine.record import RunRecord, SCHEMA_VERSION
from repro.engine.executor import execute
from repro.engine.cells import (
    Cell,
    derive_cell_seed,
    error_record,
    run_cells,
)
from repro.engine.sinks import (
    InstrumentationSink,
    MetricsSink,
    TraceSink,
)

__all__ = [
    "AlgorithmSpec",
    "RunContext",
    "RunRecord",
    "SCHEMA_VERSION",
    "execute",
    "Cell",
    "run_cells",
    "derive_cell_seed",
    "error_record",
    "register",
    "get_spec",
    "algorithm_names",
    "algorithm_specs",
    "EngineError",
    "UnknownAlgorithmError",
    "ConfigurationDivergenceError",
    "InstrumentationSink",
    "TraceSink",
    "MetricsSink",
]
