"""Per-layer metrics of the traced run: where spans go, what they mean.

Each layer is a module of the matching package.  A span named
``layer.part`` is opened around calls into that layer's public
functions; its *self* time (duration minus the time its child spans
cover) is charged to the layer.  Times are totals over one traced run
(one set-up plus a fixed, seed-chosen list of ops); counts are per op
and exclude set-up.

``moves`` records the end-to-end metric and workload each per-layer
metric should move, so a perf issue can name its prediction up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.tracing import Patcher, Tracer


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str


def _t(name: str, moves: str) -> LayerMetric:
    return LayerMetric(name, "s", "lower", moves)


def _c(name: str, moves: str, unit: str = "count",
       better: str = "lower") -> LayerMetric:
    return LayerMetric(name, unit, better, moves)


#: Span name -> the self-time metric it feeds.
SPAN_METRICS = {
    "matching.index_build": "matching.index_build_s",
    "matching.point": "matching.point_s",
    "matching.mutual": "matching.mutual_s",
    "matching.ld_loop": "matching.ld_loop_s",
    "matching.greedy": "matching.greedy_s",
    "matching.suitor": "matching.suitor_s",
    "matching.weight": "matching.weight_s",
    "partition.plan": "partition.plan_s",
    "gpusim.kernel_cost": "gpusim.kernel_cost_s",
    "gpusim.schedule": "gpusim.schedule_s",
    "comm.allreduce": "comm.allreduce_s",
    "engine.execute": "engine.execute_self_s",
    "engine.record_json": "engine.record_json_s",
    "telemetry.manifest": "telemetry.manifest_s",
    "graph.build": "graph.build_s",
    "graph.eids": "graph.eids_s",
    "graph.overlay_write": "graph.overlay_write_s",
    "graph.overlay_read": "graph.overlay_read_s",
    "streaming.init": "streaming.init_s",
    "streaming.apply": "streaming.apply_self_s",
    "store.register": "store.register_s",
    "store.claim": "store.claim_s",
    "store.complete": "store.complete_s",
    "store.read": "store.read_s",
    "store.fingerprint": "store.fingerprint_s",
    "harness.shm_publish": "harness.shm_publish_s",
    "service.start": "service.start_s",
    "service.http_submit": "service.http_submit_s",
    "service.http_result": "service.http_result_s",
    "service.worker_cell": "service.worker_cell_s",
    "service.drain": "service.drain_s",
}

SWEEP_P50 = "sweep op_p50_s"

METRICS: tuple[LayerMetric, ...] = (
    _t("matching.index_build_s", "sweep op_p50_s, work_per_s, "
       "peak_rss_mb; stream setup_s"),
    _c("matching.index_builds", "sweep op_p50_s, work_per_s"),
    _t("matching.point_s", SWEEP_P50),
    _t("matching.mutual_s", SWEEP_P50),
    _t("matching.ld_loop_s", SWEEP_P50),
    _c("matching.rounds", SWEEP_P50),
    _c("matching.host_entries_per_entry", SWEEP_P50, unit="ratio"),
    _t("matching.greedy_s", "sweep op_p90_s"),
    _t("matching.suitor_s", "sweep op_p90_s"),
    _t("matching.weight_s", "sweep op_p50_s; service op_p50_s"),
    _t("partition.plan_s", SWEEP_P50),
    _t("gpusim.kernel_cost_s", SWEEP_P50),
    _c("gpusim.kernel_calls", SWEEP_P50),
    _t("gpusim.schedule_s", SWEEP_P50),
    _t("comm.allreduce_s", SWEEP_P50),
    _c("comm.allreduce_calls", SWEEP_P50),
    _c("comm.allreduce_bytes", SWEEP_P50, unit="B-computed"),
    _t("engine.execute_self_s", "service op_p50_s; sweep op_p50_s"),
    _t("engine.record_json_s", "service op_p50_s; sweep op_p50_s"),
    _t("telemetry.manifest_s", "sweep op_p50_s; service op_p50_s"),
    _t("graph.build_s", "setup_s on every workload"),
    _t("graph.eids_s", "setup_s on every workload"),
    _t("graph.overlay_write_s", "stream op_p50_s, work_per_s"),
    _t("graph.overlay_read_s", "stream op_p50_s, work_per_s"),
    _t("streaming.init_s", "stream setup_s"),
    _t("streaming.apply_self_s", "stream op_p50_s, op_p90_s, work_per_s"),
    _c("streaming.rounds", "stream op_p50_s, op_p90_s"),
    _c("streaming.cursors_rebuilt", "stream op_p50_s, work_per_s"),
    _c("streaming.affected_per_op", "stream op_p50_s, op_p90_s"),
    _c("streaming.host_entries_per_op", "stream op_p50_s, work_per_s"),
    _t("store.register_s", "service op_p50_s, work_per_s"),
    _t("store.claim_s", "service op_p50_s, work_per_s"),
    _t("store.complete_s", "service op_p50_s, work_per_s"),
    _t("store.read_s", "service op_p50_s, work_per_s"),
    _t("store.fingerprint_s", "service op_p50_s, work_per_s"),
    _c("store.hit_ratio", "service op_p50_s, work_per_s", unit="ratio",
       better="higher"),
    _t("harness.shm_publish_s", "service op_p50_s"),
    _c("harness.shm_publishes", "service op_p50_s"),
    _t("service.start_s", "service setup_s"),
    _t("service.http_submit_s", "service op_p50_s, op_p90_s"),
    _t("service.http_result_s", "service op_p50_s, op_p90_s"),
    _t("service.worker_cell_s", "service op_p50_s, op_p90_s"),
    _t("service.drain_s", "service op_p50_s, op_p90_s"),
    _t("trace.wall_s", "traced set-up plus ops; layers + other sum to it"),
    _t("trace.other_s", "time in no layer span (api glue, op loop)"),
    _c("trace.overhead_frac", "ops' traced wall / untraced wall - 1",
       unit="ratio"),
)

# ---------------------------------------------------------------- #
# hooks: the public entry points wrapped in the traced run
# ---------------------------------------------------------------- #

def _count(counter: str):
    def hook(tracer: Tracer, args, kwargs, out) -> None:
        tracer.add(counter)
    return hook


def _host_scanned(counter: str | None):
    def hook(tracer: Tracer, args, kwargs, out) -> None:
        tracer.add("matching.host_entries", args[0].last_host_scanned)
        if counter is not None:
            tracer.add(counter)
    return hook


def _allreduce(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("comm.allreduce_calls")
    # Computed from the array sizes: bytes handed to the collective.
    tracer.add("comm.allreduce_bytes", sum(b.nbytes for b in args[0]))


def _ld_entries(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("matching.ld_entries", args[0].num_directed_edges)


def _batch(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("streaming.rounds", out.rounds)
    tracer.add("streaming.cursors_rebuilt", len(out.cursors_rebuilt))
    tracer.add("streaming.affected_per_op", out.affected_vertices)
    tracer.add("streaming.host_entries_per_op", out.host_entries_scanned)


#: Algorithm registry entries wrapped as a whole: the LD drivers' own
#: loop, and the two non-LD matchers.
ALGORITHM_SPANS = {"ld_seq": "matching.ld_loop",
                   "ld_gpu": "matching.ld_loop",
                   "greedy": "matching.greedy",
                   "suitor_seq": "matching.suitor"}


def install(patcher: Patcher) -> None:
    """Wrap every hooked entry point (undone by ``patcher.undo()``)."""
    import repro.api  # noqa: F401  (binds every module first)
    import repro.service.daemon  # noqa: F401
    import repro.service.worker  # noqa: F401
    import repro.streaming  # noqa: F401
    from repro.engine.spec import get_spec

    m, f = patcher.method, patcher.function
    pi = "repro.matching.pointer_index:"
    m(pi + "PointerIndex.__init__", "matching.index_build",
      _count("matching.index_builds"))
    m(pi + "PointerIndex.point", "matching.point", _host_scanned(None))
    m(pi + "MutualIndex.find_pairs", "matching.mutual",
      _host_scanned("matching.rounds"))
    f("repro.matching.validate:matching_weight", "matching.weight")
    for alg, span in ALGORITHM_SPANS.items():
        patcher.attribute(get_spec(alg), "fn", span,
                          _ld_entries if alg in ("ld_seq", "ld_gpu")
                          else None)
    f("repro.partition.vertex:edge_balanced_partition", "partition.plan")
    f("repro.partition.batch:plan_batches", "partition.plan")
    f("repro.partition.batch:auto_batch_count", "partition.plan")
    kernel = _count("gpusim.kernel_calls")
    f("repro.gpusim.kernels:pointing_kernel_cost", "gpusim.kernel_cost",
      kernel)
    f("repro.gpusim.kernels:matching_kernel_cost", "gpusim.kernel_cost",
      kernel)
    f("repro.gpusim.stream:dual_buffer_schedule", "gpusim.schedule")
    f("repro.comm.collectives:allreduce_max", "comm.allreduce", _allreduce)
    f("repro.engine.executor:execute", "engine.execute")
    m("repro.engine.record:RunRecord.to_json", "engine.record_json")
    m("repro.engine.record:RunRecord.from_json", "engine.record_json")
    f("repro.telemetry.provenance:build_manifest", "telemetry.manifest")
    m("repro.graph.csr:CSRGraph.canonical_edge_ids", "graph.eids")
    ov = "repro.graph.overlay:OverlayGraph."
    for name in ("insert", "delete", "reweight"):
        m(ov + name, "graph.overlay_write")
    for name in ("row_arrays", "edge_weight"):
        m(ov + name, "graph.overlay_read")
    m("repro.streaming.engine:IncrementalLD.__init__", "streaming.init")
    m("repro.streaming.engine:IncrementalLD.apply", "streaming.apply",
      _batch)
    db = "repro.store.db:RunStore."
    m(db + "register", "store.register")
    m(db + "claim_next", "store.claim")
    m(db + "complete", "store.complete")
    m(db + "get", "store.read")
    m(db + "lookup", "store.read")
    f("repro.store.fingerprint:fingerprint_for", "store.fingerprint")
    m("repro.harness.shm:SharedGraphRegistry.publish",
      "harness.shm_publish", _count("harness.shm_publishes"))
    f("repro.service.worker:run_claimed_cell", "service.worker_cell")


#: Counters reported per op (each counter is named after its metric).
PER_OP_COUNTS = ("matching.index_builds", "matching.rounds",
                 "gpusim.kernel_calls", "comm.allreduce_calls",
                 "comm.allreduce_bytes", "streaming.rounds",
                 "streaming.cursors_rebuilt", "streaming.affected_per_op",
                 "streaming.host_entries_per_op", "harness.shm_publishes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, ops: int,
                      traced_per_untraced: float) -> dict[str, float]:
    """Every per-layer metric of one traced run of ``ops`` ops;
    ``traced_per_untraced`` is the ops' traced wall over their wall in
    the same run untraced."""
    from perfbench.tracing import layer_breakdown

    totals, other = layer_breakdown(tracer.spans, tracer.wall,
                                    set(SPAN_METRICS))
    out = {SPAN_METRICS[k]: v for k, v in totals.items()}
    c = tracer.counters.get
    for name in PER_OP_COUNTS:
        out[name] = _ratio(c(name, 0.0), ops)
    out["matching.host_entries_per_entry"] = _ratio(
        c("matching.host_entries", 0.0), c("matching.ld_entries", 0.0))
    out["store.hit_ratio"] = _ratio(c("store.hits", 0.0),
                                    c("store.jobs", 0.0))
    out["trace.wall_s"] = tracer.wall
    out["trace.other_s"] = other
    out["trace.overhead_frac"] = traced_per_untraced - 1.0
    return {m.name: out[m.name] for m in METRICS}
