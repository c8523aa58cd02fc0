"""Unified observability: metrics, spans, exporters, provenance.

The paper's headline analyses are measurement artifacts — Fig. 5/7's
component breakdowns, the "~90% communication" claim, Fig. 8's "90% of
iterations touch <20% of the edges".  This package makes every run emit
those quantities uniformly:

* :mod:`~repro.telemetry.registry` — ``Counter`` / ``Gauge`` /
  fixed-bucket ``Histogram`` families labeled by
  ``algorithm``/``device``/``batch``/``component``, snapshots, and the
  sweep-level snapshot aggregator;
* :mod:`~repro.telemetry.spans` — the emission API.  Instrumented code
  (the LD-GPU loop, :mod:`repro.gpusim`) emits through the *active*
  registry (a context variable) and pays nothing when none is active;
  :class:`SpanEmitter` feeds a run's
  :class:`~repro.gpusim.timeline.Timeline` and the registry from the
  same floats so exports reconcile with existing reports exactly;
* :mod:`~repro.telemetry.exporters` — Prometheus text exposition and a
  structured JSON metrics document (with provenance + reconciliation),
  selected by path suffix via :func:`write_metrics`;
* :mod:`~repro.telemetry.provenance` — the self-description manifest
  (git describe, python/numpy versions, host platform, seed, dataset
  fingerprint, durations) the engine attaches to every
  :class:`~repro.engine.record.RunRecord`.

Wiring: :class:`repro.engine.sinks.MetricsSink` activates a registry
around each :func:`repro.engine.execute` call and snapshots it per run;
``repro-matching run --metrics-out out.prom`` is the CLI surface.

Metric names are a contract::

    repro_component_seconds_total{algorithm,device,component}   counter
    repro_span_seconds{algorithm,device,component}              histogram
    repro_spans_total{algorithm,device,component}               counter
    repro_kernel_seconds{device,kernel}                         histogram
    repro_kernel_launches_total{device}                         counter
    repro_device_bytes_total{device,direction}                  counter
    repro_exposed_transfer_seconds{device}                      histogram
    repro_batch_load_seconds{device,batch}                      histogram
    repro_communication_fraction{algorithm}                     gauge
    repro_run_wall_seconds{algorithm} / repro_run_sim_seconds   gauge
    repro_run_iterations{algorithm}                             gauge
    repro_iterations_below_edges_threshold{algorithm,threshold} gauge
    repro_wall_span_seconds{span}                               histogram
    repro_store_hits_total                                      counter
    repro_store_claims_total                                    counter
    repro_store_stale_reclaims_total                            counter
    repro_store_cancels_total                                   counter
    repro_service_requests_total{method}                        counter
    repro_service_submissions_total                             counter
    repro_service_rejections_total{reason}                      counter
    repro_service_jobs{state}                                   gauge
    repro_service_uptime_seconds                                gauge

The four ``repro_store_*`` counters come from the run store
(:mod:`repro.store`): records served without recompute, leases taken,
leases reclaimed from dead workers, and cancellation requests.  The
``repro_service_*`` families are the ``repro serve`` daemon's own
(:mod:`repro.service.daemon`), scraped from its ``/metrics``
endpoint; the jobs gauge counts the derived ``cancelled`` state
alongside the row statuses.
"""

from repro.telemetry.registry import (
    DEFAULT_BYTES_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    aggregate_snapshots,
)
from repro.telemetry.spans import (
    SpanEmitter,
    active_registry,
    count,
    emit_event,
    observe,
    record_into,
    span,
)
from repro.telemetry.exporters import (
    METRICS_DOCUMENT_SCHEMA,
    to_json_document,
    to_prometheus,
    validate_prometheus_text,
    write_metrics,
)
from repro.telemetry.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    build_manifest,
    git_describe,
    graph_fingerprint,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "aggregate_snapshots",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
    "SpanEmitter",
    "active_registry",
    "record_into",
    "emit_event",
    "count",
    "observe",
    "span",
    "to_prometheus",
    "to_json_document",
    "write_metrics",
    "validate_prometheus_text",
    "METRICS_DOCUMENT_SCHEMA",
    "build_manifest",
    "git_describe",
    "graph_fingerprint",
    "PROVENANCE_SCHEMA_VERSION",
]
