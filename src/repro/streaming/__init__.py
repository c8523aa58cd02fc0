"""Batch-dynamic streaming matching.

The paper's motivating workloads (scheduling, resource allocation) see
graphs as *streams* of edge events.  This package makes them a
first-class workload plane:

* :mod:`repro.streaming.events` — the :class:`UpdateBatch` /
  :class:`EdgeStream` event model: ordered insert/delete/reweight
  batches, deterministically replayable from a seeded generator or a
  recorded JSONL event log;
* :mod:`repro.streaming.engine` — the :class:`IncrementalLD` engine
  (apply a batch to a base+overlay graph, patch only the sorted rows
  of vertices whose neighbourhood changed, repair the
  locally dominant matching from that affected frontier to the fixed
  point) and the :class:`RecomputeLD` from-scratch oracle.  Both reach
  the *same* fixed point — LD's matching is the unique stable matching
  under the ``(weight, eid)`` total order — so the incremental mate
  array is byte-for-byte identical to a fresh
  :func:`~repro.matching.ld_seq.ld_seq` on the mutated graph;
* :mod:`repro.streaming.scenario` — the registered ``dynamic_ld``
  algorithm: a seeded stream applied through either engine, with
  per-batch ``affected_vertices`` / ``host_entries_scanned`` / update
  latency stats on the RunRecord.  ``repro-matching stream`` is the
  CLI face; the ``dynamic`` bench suite gates the update-latency
  speedup over recompute in CI.
"""

from repro.streaming.events import (
    OPS,
    EdgeStream,
    UpdateBatch,
)
from repro.streaming.engine import (
    STREAM_ENGINES,
    BatchResult,
    IncrementalLD,
    RecomputeLD,
    make_engine,
)
from repro.streaming.scenario import dynamic_ld

__all__ = [
    "OPS",
    "UpdateBatch",
    "EdgeStream",
    "STREAM_ENGINES",
    "BatchResult",
    "IncrementalLD",
    "RecomputeLD",
    "make_engine",
    "dynamic_ld",
]
