"""The one way to run a registered algorithm.

:func:`execute` resolves a spec, binds context-owned keyword arguments,
runs the algorithm under wall-clock timing, notifies the context's
instrumentation sinks and returns a uniform
:class:`~repro.engine.record.RunRecord` — the same structured shape for
``ld_gpu`` on eight simulated GPUs and for a pure-Python exact solver.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Any

from repro.engine.context import RunContext
from repro.engine.record import RunRecord, _coerce
from repro.engine.spec import AlgorithmSpec, get_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.matching.types import MatchResult

__all__ = ["execute"]


def _normalise_config(result: "MatchResult") -> dict[str, Any] | None:
    """Force ``result.stats["config"]`` to a plain dict.

    Algorithms attach their configuration echo in whatever shape is
    natural to them — ``ld_gpu`` a dataclass, others a dict.  The engine
    boundary flattens that to one JSON-safe shape so every
    :class:`RunRecord` round-trips identically regardless of which of
    the registered algorithms produced it.
    """
    cfg = result.stats.get("config")
    if cfg is None:
        return None
    if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
        cfg = dataclasses.asdict(cfg)
    cfg = _coerce(cfg)
    result.stats["config"] = cfg
    return cfg


def _resolved_batches(spec: AlgorithmSpec, ctx: RunContext,
                      result: "MatchResult") -> int | None:
    """The batch count actually used (auto-fit resolves ``None``)."""
    if not spec.needs_batches:
        return None
    cfg = result.stats.get("config")
    if isinstance(cfg, dict):
        resolved = cfg.get("num_batches")
    else:
        resolved = getattr(cfg, "num_batches", None)
    return resolved if resolved is not None else ctx.num_batches


def execute(
    algorithm: "str | AlgorithmSpec",
    graph: "CSRGraph",
    ctx: RunContext | None = None,
    **overrides: Any,
) -> RunRecord:
    """Run ``algorithm`` on ``graph`` under ``ctx``.

    ``overrides`` are forwarded verbatim to the algorithm callable on
    top of the bound context kwargs (e.g. ``collect_stats=False``,
    ``max_iterations=3``).  Algorithm-specific errors (notably
    :class:`~repro.gpusim.memory.DeviceOOMError`) propagate so callers
    can render the paper's '-' entries.
    """
    spec = algorithm if isinstance(algorithm, AlgorithmSpec) \
        else get_spec(algorithm)
    if ctx is None:
        ctx = RunContext()
    kwargs = spec.bind(graph, ctx)
    kwargs.update(overrides)

    for sink in ctx.sinks:
        sink.on_run_start(spec, graph, ctx)

    started_at = time.time()
    t0 = time.perf_counter()
    try:
        result = spec.fn(graph, **kwargs)
    except BaseException as exc:
        for sink in ctx.sinks:
            sink.on_run_error(spec, graph, ctx, exc)
        raise
    wall = time.perf_counter() - t0

    from repro.telemetry.provenance import build_manifest

    manifest = build_manifest(
        graph=graph,
        seed=kwargs.get("seed"),
        dataset=ctx.dataset,
        sim_platform=ctx.resolved_platform().name
        if (spec.needs_platform or spec.needs_device_spec) else None,
        wall_time_s=wall,
        sim_time_s=float(result.sim_time)
        if result.sim_time is not None else None,
    )
    # Paper-claim series ride along in ``extra`` so a stored record is
    # enough for ``repro-matching stats`` (Fig. 8's edges-accessed
    # fractions need the per-iteration scan counts).
    extra: dict[str, Any] = {}
    scanned = result.stats.get("edges_scanned")
    if scanned is not None:
        extra["edges_scanned"] = _coerce(scanned)
    # Host work (entries the host actually examined, against the
    # modeled series) rides along too, so stored records can report it.
    for key in ("host_entries_scanned",
                "host_entries_scanned_pointing",
                "host_entries_scanned_matching"):
        val = result.stats.get(key)
        if val is not None:
            extra[key] = _coerce(val)
    # Spec-declared stats passthrough: algorithms whose *output* lives
    # in stats (coreset shard edge lists, per-shard memory peaks, ...)
    # declare the keys on their AlgorithmSpec so store-served records —
    # which carry no in-memory MatchResult — stay fully usable.
    for key in spec.record_stats:
        val = result.stats.get(key)
        if val is not None:
            extra[key] = _coerce(val)
    config = _normalise_config(result)
    if config is not None:
        extra["config"] = config

    record = RunRecord(
        algorithm=spec.name,
        graph=graph.name,
        num_vertices=int(graph.num_vertices),
        num_directed_edges=int(graph.num_directed_edges),
        weight=float(result.weight),
        matched_edges=int(result.num_matched_edges),
        iterations=int(result.iterations),
        sim_time=float(result.sim_time)
        if result.sim_time is not None else None,
        wall_time_s=wall,
        started_at=started_at,
        duration_s=time.perf_counter() - t0,
        dataset=ctx.dataset,
        platform=ctx.resolved_platform().name
        if (spec.needs_platform or spec.needs_device_spec) else None,
        cpu=ctx.resolved_cpu().name if spec.needs_cpu else None,
        num_devices=ctx.num_devices if spec.needs_devices else None,
        num_batches=_resolved_batches(spec, ctx, result),
        seed=kwargs.get("seed"),
        capability_tags=spec.capability_tags,
        timeline_totals=_coerce(result.timeline.totals)
        if result.timeline is not None else None,
        provenance=manifest,
        extra=extra,
        result=result,
    )

    for sink in ctx.sinks:
        sink.on_run_end(record)
    return record
