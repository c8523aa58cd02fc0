"""Pluggable instrumentation for engine-executed runs.

Sinks attach to a :class:`~repro.engine.context.RunContext` and are
notified by :func:`~repro.engine.executor.execute` around every run.
Built-ins capture/export simulator traces (:class:`TraceSink`) and
count runs into a metrics registry (:class:`MetricsSink`); custom sinks
just subclass :class:`InstrumentationSink`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import RunContext
    from repro.engine.record import RunRecord
    from repro.engine.spec import AlgorithmSpec
    from repro.graph.csr import CSRGraph

__all__ = [
    "InstrumentationSink",
    "TraceSink",
    "MetricsSink",
]


class InstrumentationSink:
    """Base sink: all hooks are no-ops; override what you need."""

    def on_run_start(self, spec: "AlgorithmSpec", graph: "CSRGraph",
                     ctx: "RunContext") -> None:
        """Called just before the algorithm callable runs."""

    def on_run_end(self, record: "RunRecord") -> None:
        """Called with the finished :class:`RunRecord`."""

    def on_run_error(self, spec: "AlgorithmSpec", graph: "CSRGraph",
                     ctx: "RunContext", exc: BaseException) -> None:
        """Called instead of :meth:`on_run_end` when the algorithm
        raises (e.g. :class:`~repro.gpusim.memory.DeviceOOMError`);
        sinks holding per-run state must release it here."""


class TraceSink(InstrumentationSink):
    """Captures a :class:`~repro.gpusim.trace.Trace` from every
    simulator-backed run (results without a timeline are skipped).

    ``path`` writes each captured trace as chrome://tracing JSON — a
    single run's CLI export (``repro-matching run --trace``) or, with a
    ``{n}`` placeholder, one file per run.  Without ``{n}`` every run
    writes the *same* file: the second save warns once and
    ``saved_paths`` records only the surviving path.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.traces: list[Any] = []
        self.saved_paths: list[str] = []
        self._overwrite_warned = False

    def on_run_end(self, record: "RunRecord") -> None:
        result = record.result
        if result is None or result.timeline is None:
            return
        from repro.gpusim.trace import Trace

        trace = Trace.from_result(result)
        self.traces.append(trace)
        if self.path is not None:
            target = str(self.path).replace("{n}", str(len(self.traces)))
            trace.save(target)
            if target in self.saved_paths:
                if not self._overwrite_warned:
                    import warnings

                    warnings.warn(
                        f"TraceSink path {self.path!r} has no '{{n}}' "
                        f"placeholder; successive runs overwrite "
                        f"{target!r} and only the last trace survives",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self._overwrite_warned = True
            else:
                self.saved_paths.append(target)


class MetricsSink(InstrumentationSink):
    """Activates a :class:`~repro.telemetry.MetricsRegistry` around every
    run and snapshots it when the run finishes.

    Each run gets a fresh registry (so per-run exports are isolated);
    the snapshots accumulate in :attr:`snapshots`, pairwise with
    :attr:`records`, and :meth:`merged` folds them into one sweep-level
    view (histograms add across cells).  On run end the sink finalises
    the run-scope gauges — ``repro_communication_fraction``,
    ``repro_run_wall_seconds`` / ``repro_run_sim_seconds``,
    ``repro_run_iterations`` and Fig. 8's
    ``repro_iterations_below_edges_threshold`` — from the finished
    :class:`~repro.engine.record.RunRecord`, so they agree with the
    record by construction.
    """

    #: Fig. 8's threshold: iterations touching <20% of the edges.
    EDGES_THRESHOLD = 0.2

    def __init__(self) -> None:
        self.snapshots: list[Any] = []
        self.records: list["RunRecord"] = []
        self._scopes: list[Any] = []

    def on_run_start(self, spec: "AlgorithmSpec", graph: "CSRGraph",
                     ctx: "RunContext") -> None:
        from repro.telemetry import MetricsRegistry, record_into

        scope = record_into(MetricsRegistry())
        registry = scope.__enter__()
        self._scopes.append((scope, registry))

    def on_run_error(self, spec: "AlgorithmSpec", graph: "CSRGraph",
                     ctx: "RunContext", exc: BaseException) -> None:
        if self._scopes:
            scope, _ = self._scopes.pop()
            scope.__exit__(None, None, None)

    def on_run_end(self, record: "RunRecord") -> None:
        if not self._scopes:
            return
        scope, registry = self._scopes.pop()
        scope.__exit__(None, None, None)
        self._finalise(registry, record)
        self.snapshots.append(registry.snapshot())
        self.records.append(record)

    def _finalise(self, registry: Any, record: "RunRecord") -> None:
        """Run-scope gauges derived from the finished record."""
        alg = record.algorithm
        registry.gauge(
            "repro_run_wall_seconds",
            "Measured wall-clock seconds of the run.", algorithm=alg,
        ).set(record.wall_time_s)
        if record.sim_time is not None:
            registry.gauge(
                "repro_run_sim_seconds",
                "Modeled simulator seconds of the run.", algorithm=alg,
            ).set(record.sim_time)
        registry.gauge(
            "repro_run_iterations",
            "Pointing/matching rounds executed.", algorithm=alg,
        ).set(record.iterations)
        result = record.result
        timeline = getattr(result, "timeline", None)
        if timeline is not None:
            registry.gauge(
                "repro_communication_fraction",
                "Share of modeled time in collectives, transfers and "
                "sync (the paper's ~90% claim).", algorithm=alg,
            ).set(timeline.communication_fraction())
        scanned = getattr(result, "stats", {}).get("edges_scanned") \
            if result is not None else None
        if scanned is not None and record.num_directed_edges > 0:
            from repro.metrics.workstats import iterations_below_fraction

            registry.gauge(
                "repro_iterations_below_edges_threshold",
                "Fraction of iterations scanning less than the "
                "threshold share of edges (Fig. 8).",
                algorithm=alg, threshold=self.EDGES_THRESHOLD,
            ).set(iterations_below_fraction(
                scanned, record.num_directed_edges,
                self.EDGES_THRESHOLD,
            ))

    # -------------------------------------------------------------- #
    @property
    def last_snapshot(self) -> Any | None:
        """The most recent run's snapshot (None before any run)."""
        return self.snapshots[-1] if self.snapshots else None

    def merged(self) -> Any:
        """All runs' snapshots folded into one
        (:func:`repro.telemetry.aggregate_snapshots`)."""
        from repro.telemetry import aggregate_snapshots

        return aggregate_snapshots(self.snapshots)
