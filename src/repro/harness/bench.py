"""Benchmark suites with a committed-baseline regression gate.

The paper's claims are *relative* — LD-GPU beats SR-GPU here, scaling
curves bend there — so the quantity worth gating in CI is the modeled
``sim_time``: it is a deterministic function of (graph, configuration,
cost model) and any drift means the cost model or an algorithm changed,
not that the CI machine was busy.  Wall-clock medians ride along as
informational fields but are never gated.

Protocol: every workload of a suite runs ``repeats`` times through
:func:`~repro.engine.cells.run_cells` (so ``parallel=N`` and the graph
cache apply), medians over the repeats land in a ``BENCH_<suite>.json``
document at the repository root, and :func:`compare_reports` checks it
against a committed baseline (``benchmarks/baseline_<suite>.json``)
with a relative tolerance.  ``repro-matching bench`` is the CLI face;
the CI ``bench-smoke`` job fails on any regression beyond tolerance.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.cells import Cell, run_cells

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "GATED_METRICS",
    "Workload",
    "SUITES",
    "run_bench",
    "write_bench_report",
    "validate_bench_report",
    "compare_reports",
    "regressed",
    "bench_report_path",
    "baseline_report_path",
]

BENCH_SCHEMA_VERSION = 1

#: The metrics the gate holds against tolerance, each with the
#: direction a regression moves it.  All are deterministic by
#: construction (modeled seconds, counted host work, coreset shard
#: footprint and quality ratio, streaming repair frontier), so a drift
#: is a code change, not machine noise.  :func:`compare_reports` and
#: the report's trajectories (:mod:`repro.analysis.trajectory`) both
#: read this table.
GATED_METRICS: tuple[tuple[str, str], ...] = (
    ("median_sim_time_s", "up"),
    ("host_entries_scanned", "up"),
    ("peak_shard_edges", "up"),
    ("approx_ratio_vs_blossom", "down"),
    ("affected_vertices", "up"),
)


@dataclass(frozen=True)
class Workload:
    """One benchmarked configuration (fixed algorithm/dataset/config).

    The input graph is either a registry ``dataset`` (the default) or,
    for stress workloads with no registry analog, a module-level
    ``build`` callable (see :class:`~repro.engine.cells.Cell`).
    """

    name: str
    algorithm: str
    dataset: str | None = None
    quality: bool = True
    config: dict[str, Any] = field(default_factory=dict)
    overrides: dict[str, Any] = field(default_factory=dict)
    build: Any = field(default=None, repr=False)

    def cell(self, replicate: int | None = None,
             suite: str | None = None) -> Cell:
        # Distinct replicate indices keep bench repeats individually
        # addressable in a run store (identical cells would collapse
        # onto one fingerprint and repeats 2..N would be store hits).
        # A suite-qualified label ("<suite>:<name>") makes stored bench
        # cells discoverable by the trajectory layer
        # (:mod:`repro.analysis.trajectory`) via a label-prefix query.
        label = f"{suite}:{self.name}" if suite else self.name
        return Cell(self.algorithm, dataset=self.dataset,
                    quality=self.quality, build=self.build,
                    config=dict(self.config),
                    overrides=dict(self.overrides),
                    label=label, replicate=replicate)


# ------------------------------------------------------------------ #
# pointing stress graphs
# ------------------------------------------------------------------ #
#
# The ``pointing`` suite measures the two pointing engines
# (:mod:`repro.matching.pointer_index`) where their costs actually
# diverge.  The registry analogs converge in <= 10 rounds with a
# geometrically shrinking frontier, so total segment re-scanning is only
# ~1.7x |E| and the graph's one sorted-row build (which the index
# engine needs) dominates.  Pointing-dominated instances are the
# tie-heavy ones: with equal weights the (weight, eid) tiebreak
# serialises locally dominant matching — a clique matches one pair per
# round (k/2 rounds over a full-size frontier, Theta(k^3) segment
# re-scanning vs the index engine's amortised O(k^2)) and a path
# matches right-to-left (n/2 rounds dominated by per-round overhead).
# Module-level zero-argument builders so ``parallel=N`` can pickle them
# by reference.


def _tie_clique(k: int, name: str):
    import numpy as np

    from repro.graph.builders import from_coo

    u, v = np.triu_indices(k, 1)
    return from_coo(u, v, np.ones(len(u)), num_vertices=k, name=name)


def tie_clique_500():
    """K_500, all weights equal: 250 pointing rounds, full frontier."""
    return _tie_clique(500, "tie-clique-500")


def tie_clique_300():
    """K_300, all weights equal (LD-GPU sized: fits 2 devices x 2
    batches without streaming)."""
    return _tie_clique(300, "tie-clique-300")


def tie_path_6000():
    """P_6000, all weights equal: one match per round, tiny frontier —
    isolates per-round pointing overhead."""
    import numpy as np

    from repro.graph.builders import from_coo

    u = np.arange(5999)
    return from_coo(u, u + 1, np.ones(5999), num_vertices=6000,
                    name="tie-path-6000")


def tie_path_3000():
    """P_3000, all weights equal: n/2 matching rounds over a tiny
    pointing frontier — the matching phase dominates, so the full-scan
    oracle pays Theta(n^2 / 2) host probes where the delta engine pays
    O(m + n)."""
    import numpy as np

    from repro.graph.builders import from_coo

    u = np.arange(2999)
    return from_coo(u, u + 1, np.ones(2999), num_vertices=3000,
                    name="tie-path-3000")


def _coreset_overrides(dataset: str, shards: int) -> dict[str, Any]:
    """Coreset workload kwargs: fixed partition seed + the dataset ref
    the coordinator hands down so shard cells stay store-resumable."""
    return {"num_shards": shards, "seed": 1,
            "dataset": dataset, "quality": True}


def _dynamic_overrides(stream_engine: str, num_batches: int,
                       batch_size: int) -> dict[str, Any]:
    """Batch-dynamic workload kwargs.  The stream seed rides in
    overrides so every replicate applies the identical update stream
    (the matching itself is deterministic either way)."""
    return {"stream_engine": stream_engine, "num_batches": num_batches,
            "batch_size": batch_size, "seed": 5}


#: Benchmark suites.  ``smoke`` runs on the tiny blossom-tractable
#: quality instances so the whole suite (x repeats) costs seconds —
#: small enough for a per-push CI gate while still crossing every
#: interesting code path: multi-device LD-GPU, forced batching, both
#: suitor baselines and a sequential reference.  ``pointing`` pits the
#: two pointing engines against each other: tie-heavy stress graphs
#: (where re-pointing dominates and the index engine wins on wall
#: time) plus one full-size analog pair recording the build-dominated
#: regime honestly; sim_time stays the gated metric and is engine-
#: independent by construction.  ``graph_plane`` guards the PR-6
#: surfaces: matching-phase host work (``host_entries_scanned`` is
#: deterministic, so it is gated like sim_time wherever the baseline
#: recorded it) on round-heavy tie paths where the SetMates full scan
#: is Theta(n * rounds), and — via the report's ``staging`` block — the
#: zero-copy warm-start claim that attaching a shared-memory segment
#: beats reloading the ``.npz`` snapshot.
SUITES: dict[str, tuple[Workload, ...]] = {
    "smoke": (
        Workload("ld_gpu-1dev", "ld_gpu", "GAP-kron",
                 config={"num_devices": 1},
                 overrides={"collect_stats": False}),
        Workload("ld_gpu-4dev", "ld_gpu", "GAP-kron",
                 config={"num_devices": 4},
                 overrides={"collect_stats": False}),
        Workload("ld_gpu-stream", "ld_gpu", "mouse_gene",
                 config={"num_devices": 2, "num_batches": 3},
                 overrides={"collect_stats": False,
                            "force_streaming": True}),
        Workload("sr_gpu", "sr_gpu", "GAP-kron"),
        Workload("sr_omp", "sr_omp", "mouse_gene"),
        Workload("ld_seq", "ld_seq", "mouse_gene"),
    ),
    "pointing": (
        Workload("ld_seq-tie-clique-index", "ld_seq",
                 build=tie_clique_500, quality=False,
                 overrides={"engine": "index"}),
        Workload("ld_seq-tie-clique-segment", "ld_seq",
                 build=tie_clique_500, quality=False,
                 overrides={"engine": "segment"}),
        Workload("ld_seq-tie-path-index", "ld_seq",
                 build=tie_path_6000, quality=False,
                 overrides={"engine": "index"}),
        Workload("ld_seq-tie-path-segment", "ld_seq",
                 build=tie_path_6000, quality=False,
                 overrides={"engine": "segment"}),
        Workload("ld_gpu-tie-clique-index", "ld_gpu",
                 build=tie_clique_300, quality=False,
                 config={"num_devices": 2, "num_batches": 2},
                 overrides={"engine": "index",
                            "collect_stats": False}),
        Workload("ld_gpu-tie-clique-segment", "ld_gpu",
                 build=tie_clique_300, quality=False,
                 config={"num_devices": 2, "num_batches": 2},
                 overrides={"engine": "segment",
                            "collect_stats": False}),
        Workload("ld_seq-GAP-kron-index", "ld_seq", "GAP-kron",
                 quality=False, overrides={"engine": "index"}),
        Workload("ld_seq-GAP-kron-segment", "ld_seq", "GAP-kron",
                 quality=False, overrides={"engine": "segment"}),
    ),
    "graph_plane": (
        Workload("ld_seq-tie-path-index", "ld_seq",
                 build=tie_path_3000, quality=False,
                 overrides={"engine": "index"}),
        Workload("ld_seq-tie-path-segment", "ld_seq",
                 build=tie_path_3000, quality=False,
                 overrides={"engine": "segment"}),
        Workload("ld_gpu-tie-clique-index", "ld_gpu",
                 build=tie_clique_300, quality=False,
                 config={"num_devices": 2, "num_batches": 2},
                 overrides={"engine": "index"}),
        Workload("ld_gpu-tie-clique-segment", "ld_gpu",
                 build=tie_clique_300, quality=False,
                 config={"num_devices": 2, "num_batches": 2},
                 overrides={"engine": "segment"}),
    ),
    # Shards x graph scale on the blossom-tractable quality instances,
    # with exact blossom references on the same graphs so run_bench can
    # attach approx_ratio_vs_blossom to every coreset entry.  The seed
    # rides in overrides (not ctx config) so every replicate partitions
    # identically.  Gated: peak_shard_edges may not grow (the MPC
    # memory-per-machine budget) and the ratio may not shrink beyond
    # tolerance.
    "coreset": (
        Workload("blossom-GAP-kron", "blossom", "GAP-kron"),
        Workload("blossom-mouse_gene", "blossom", "mouse_gene"),
        Workload("coreset_greedy-GAP-kron-2", "coreset_greedy",
                 "GAP-kron",
                 overrides=_coreset_overrides("GAP-kron", 2)),
        Workload("coreset_greedy-GAP-kron-4", "coreset_greedy",
                 "GAP-kron",
                 overrides=_coreset_overrides("GAP-kron", 4)),
        Workload("coreset_greedy-GAP-kron-8", "coreset_greedy",
                 "GAP-kron",
                 overrides=_coreset_overrides("GAP-kron", 8)),
        Workload("coreset_ld-GAP-kron-4", "coreset_ld", "GAP-kron",
                 overrides=_coreset_overrides("GAP-kron", 4)),
        Workload("coreset_greedy-mouse_gene-4", "coreset_greedy",
                 "mouse_gene",
                 overrides=_coreset_overrides("mouse_gene", 4)),
        Workload("coreset_ld-mouse_gene-8", "coreset_ld", "mouse_gene",
                 overrides=_coreset_overrides("mouse_gene", 8)),
    ),
    # Batch-dynamic streaming (:mod:`repro.streaming`): every
    # ``-incremental`` workload has a ``-recompute`` twin on the
    # identical seeded update stream.  Gated: ``host_entries_scanned``
    # and ``affected_vertices`` (deterministic, vs the committed
    # baseline) and the machine-relative update-latency
    # ``speedup_vs_recompute`` floor — local repair must beat
    # from-scratch recompute wherever it runs, the wall-clock analogue
    # of the staging gate.  ``median_update_latency_s`` itself rides
    # along informationally, never gated absolutely.
    "dynamic": (
        Workload("dynamic_ld-mouse_gene-b16-incremental", "dynamic_ld",
                 "mouse_gene", quality=False,
                 overrides=_dynamic_overrides("incremental", 12, 16)),
        Workload("dynamic_ld-mouse_gene-b16-recompute", "dynamic_ld",
                 "mouse_gene", quality=False,
                 overrides=_dynamic_overrides("recompute", 12, 16)),
        # Small batches on the tiny quality instance: the affected
        # frontier stays well below |V|, so the speedup margin is
        # robust even where per-batch recompute is already cheap.
        Workload("dynamic_ld-mouse_gene-q-b8-incremental",
                 "dynamic_ld", "mouse_gene",
                 overrides=_dynamic_overrides("incremental", 12, 8)),
        Workload("dynamic_ld-mouse_gene-q-b8-recompute",
                 "dynamic_ld", "mouse_gene",
                 overrides=_dynamic_overrides("recompute", 12, 8)),
    ),
}


def _median(values: list[float]) -> float | None:
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if vals else None


def _measure_staging(build: Any, repeats: int) -> dict[str, Any]:
    """Warm-start comparison: shared-memory attach vs ``.npz`` reload.

    Stages one graph both ways a worker would see it — snapshot to a
    throwaway :class:`~repro.harness.cache.GraphCache` and reload, vs
    publish once and attach through a *fresh*
    :class:`~repro.harness.shm.SharedGraphRegistry` (so every attach is
    a cold map, not the owner's memoised fast path) — and reports the
    medians plus their ratio.  The npz side benefits from the per-
    process verification memo after the first load, so the reported
    ``speedup`` is a conservative lower bound on what a spawned worker
    actually saves.  ``speedup`` is ``None`` where the shared-memory
    plane is unavailable.
    """
    import tempfile
    import time

    from repro.harness.cache import GraphCache
    from repro.harness.shm import SharedGraphRegistry, shm_enabled

    graph = build()
    out: dict[str, Any] = {"graph": graph.name,
                           "median_shm_attach_s": None,
                           "speedup": None}
    with tempfile.TemporaryDirectory(prefix="repro-bench-stage-") as td:
        cache = GraphCache(td)
        path, fingerprint = cache.store(graph)
        npz_times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            cache.load(path, fingerprint)
            npz_times.append(time.perf_counter() - t0)
        out["median_npz_load_s"] = statistics.median(npz_times)

        if not shm_enabled():
            return out
        owner = SharedGraphRegistry()
        attachers = []  # keep views alive until after the unlink
        try:
            segment = owner.publish(graph, fingerprint)
            shm_times = []
            for _ in range(repeats):
                registry = SharedGraphRegistry()
                t0 = time.perf_counter()
                registry.attach(segment)
                shm_times.append(time.perf_counter() - t0)
                attachers.append(registry)
        finally:
            owner.unlink_all()
        out["median_shm_attach_s"] = statistics.median(shm_times)
        if out["median_shm_attach_s"] > 0:
            out["speedup"] = (out["median_npz_load_s"]
                              / out["median_shm_attach_s"])
    return out


def run_bench(
    suite: str = "smoke",
    repeats: int = 3,
    parallel: int = 0,
    cache: Any = None,
    store: Any = None,
) -> dict[str, Any]:
    """Run a suite; returns the ``BENCH_*.json`` document (schema v1).

    Every workload runs ``repeats`` times; ``median_sim_time_s`` (the
    gated metric — deterministic modeled seconds) and
    ``median_wall_time_s`` (informational) are medians over the repeats,
    as is ``host_entries_scanned`` (deterministic host-engine work,
    gated when the baseline recorded it; null under
    ``collect_stats=False``).  A crashing workload reports
    ``status="error"`` with the error type instead of killing the
    suite.  The ``graph_plane`` suite additionally attaches a
    ``staging`` block (:func:`_measure_staging`) comparing shared-
    memory attach against ``.npz`` reload for a representative graph.

    ``store`` (a :class:`~repro.store.db.RunStore` or database path)
    appends every (workload, replicate) record to a durable, queryable
    history keyed by content fingerprint instead of only overwriting
    ``BENCH_<suite>.json`` — re-running an unchanged suite against the
    same store serves every cell from history with zero recompute.
    """
    if suite not in SUITES:
        raise KeyError(f"unknown bench suite {suite!r}; "
                       f"have {sorted(SUITES)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    workloads = SUITES[suite]
    cells = [w.cell(replicate=k, suite=suite) for w in workloads
             for k in range(repeats)]
    records = run_cells(cells, parallel=parallel, cache=cache,
                        store=store)

    entries = []
    for i, w in enumerate(workloads):
        group = records[i * repeats:(i + 1) * repeats]
        ok = [r for r in group if r.ok]
        entry: dict[str, Any] = {
            "name": w.name,
            "algorithm": w.algorithm,
            "dataset": w.dataset,
            "status": "ok" if len(ok) == len(group) else "error",
            "median_sim_time_s": _median([r.sim_time for r in ok]),
            "median_wall_time_s": _median([r.wall_time_s for r in ok]),
            "weight": ok[0].weight if ok else None,
            "iterations": ok[0].iterations if ok else None,
            # Deterministic like sim_time, so gated wherever the
            # baseline recorded it (null when the algorithm ran with
            # collect_stats=False).
            "host_entries_scanned": _median(
                [(r.extra or {}).get("host_entries_scanned")
                 for r in ok]),
        }
        # Coreset memory discipline: the shard/merge footprints are
        # deterministic functions of (graph, seed, k), gated like
        # sim_time wherever the baseline recorded them.
        if ok and (ok[0].extra or {}).get("peak_shard_edges") \
                is not None:
            entry["peak_shard_edges"] = ok[0].extra["peak_shard_edges"]
            entry["merge_edges"] = ok[0].extra.get("merge_edges")
        # Batch-dynamic workloads: the update latency is wall-clock
        # (informational, machine-dependent); affected_vertices is a
        # deterministic function of (graph, stream) and gated like
        # host_entries_scanned.
        if ok and (ok[0].extra or {}).get("stream_batches") is not None:
            entry["median_update_latency_s"] = _median(
                [(r.extra or {}).get("median_update_latency_s")
                 for r in ok])
            entry["affected_vertices"] = \
                (ok[0].extra or {}).get("affected_vertices")
            entry["stream_batches"] = ok[0].extra["stream_batches"]
        if entry["status"] == "error":
            bad = next(r for r in group if not r.ok)
            entry["error"] = {"type": bad.error["type"],
                              "message": bad.error["message"]}
        entries.append(entry)

    if suite == "coreset":
        # Pair every coreset entry with the exact blossom reference on
        # the same dataset: the ratio is the paper-facing quality claim
        # (>= 3/8 guaranteed, ~0.8 observed) and is gated against
        # decreases.
        exact = {e["dataset"]: e["weight"] for e in entries
                 if e["algorithm"] == "blossom"
                 and e["status"] == "ok"}
        for e in entries:
            if "peak_shard_edges" not in e:
                continue
            ref = exact.get(e["dataset"])
            e["approx_ratio_vs_blossom"] = (
                e["weight"] / ref
                if ref and e["status"] == "ok" else None)

    if suite == "dynamic":
        # Pair every incremental workload with its recompute twin on
        # the same stream: the per-update latency ratio is the
        # paper-facing claim (local repair amortised vs O(m) per
        # batch) and its >= 1.0 floor is gated machine-relatively.
        by_name = {e["name"]: e for e in entries}
        for e in entries:
            if not e["name"].endswith("-incremental"):
                continue
            twin = by_name.get(
                e["name"][:-len("incremental")] + "recompute")
            if twin is None or e["status"] != "ok" \
                    or twin["status"] != "ok":
                continue
            inc_l = e.get("median_update_latency_s")
            rec_l = twin.get("median_update_latency_s")
            if inc_l and rec_l:
                e["speedup_vs_recompute"] = rec_l / inc_l

    from repro.harness.cache import cache_disabled, default_cache_root
    from repro.telemetry.provenance import build_manifest

    used_cache = None
    if parallel and cache is not False:
        used_cache = str(cache.root) if cache is not None \
            else (None if cache_disabled() else str(default_cache_root()))
    used_store = None
    if store is not None:
        used_store = str(store.path) if hasattr(store, "path") \
            else str(store)

    report: dict[str, Any] = {
        "schema": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "repeats": repeats,
        "workloads": entries,
        "provenance": build_manifest(dataset_cache=used_cache,
                                     run_store=used_store),
    }
    if suite == "graph_plane":
        report["staging"] = _measure_staging(tie_path_3000,
                                             max(repeats, 3))
    return report


def bench_report_path(suite: str, root: "Path | str | None" = None) -> Path:
    """Where a suite's report lands: ``BENCH_<suite>.json`` under
    ``root`` (default: the current directory, i.e. the repo root when
    run from CI)."""
    base = Path(root) if root is not None else Path.cwd()
    return base / f"BENCH_{suite}.json"


def baseline_report_path(suite: str,
                         root: "Path | str | None" = None) -> Path:
    """The committed baseline a suite gates against:
    ``baseline_<suite>.json`` under ``root`` (default ``benchmarks/``
    in the current directory, i.e. the repo root)."""
    base = Path(root if root is not None else "benchmarks")
    return base / f"baseline_{suite}.json"


def regressed(current: float, reference: float, direction: str,
              tolerance: float) -> bool:
    """Whether ``current`` moved past ``reference`` in the regression
    ``direction`` (``"up"`` or ``"down"``) by more than the relative
    ``tolerance``."""
    if direction == "up":
        return current > reference * (1.0 + tolerance)
    return current < reference * (1.0 - tolerance)


def write_bench_report(report: dict[str, Any],
                       path: "Path | str | None" = None) -> Path:
    """Write ``report`` to ``path`` (default
    :func:`bench_report_path`)."""
    out = Path(path) if path is not None \
        else bench_report_path(report["suite"])
    with open(out, "wt") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return out


def validate_bench_report(doc: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed v1 report."""
    if not isinstance(doc, dict):
        raise ValueError("bench report must be a JSON object")
    if doc.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench report schema {doc.get('schema')!r} != "
            f"{BENCH_SCHEMA_VERSION}")
    for key in ("suite", "repeats", "workloads", "provenance"):
        if key not in doc:
            raise ValueError(f"bench report missing {key!r}")
    if not isinstance(doc["workloads"], list) or not doc["workloads"]:
        raise ValueError("bench report has no workloads")
    for w in doc["workloads"]:
        for key in ("name", "algorithm", "dataset", "status",
                    "median_sim_time_s", "median_wall_time_s"):
            if key not in w:
                raise ValueError(
                    f"workload {w.get('name', '?')!r} missing {key!r}")
        if w["status"] == "ok" and not isinstance(
                w["median_sim_time_s"], (int, float, type(None))):
            raise ValueError(
                f"workload {w['name']!r}: median_sim_time_s must be "
                "numeric or null")


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.05,
) -> list[str]:
    """Regressions of ``current`` against ``baseline``.

    Returns human-readable problem strings (empty list = gate passes):
    a workload whose gated metric (:data:`GATED_METRICS`, each only
    where the baseline recorded one) moves beyond the baseline in its
    regression direction by more than ``tolerance`` (relative,
    :func:`regressed`), went from ok to
    error, or disappeared.  Faster-than-baseline and wall-clock changes
    never fail the gate; new workloads without a baseline entry are
    reported as advisory ``"new workload"`` lines only when the
    baseline suite matches.  When the baseline carries a ``staging``
    block, the zero-copy invariant is held too: a current ``speedup``
    below 1.0 (shared-memory attach slower than the ``.npz`` reload it
    replaces) fails the gate.  The ``dynamic`` suite's update-latency
    gate is the same machine-relative shape: wherever the baseline
    recorded a ``speedup_vs_recompute``, a current value below 1.0 —
    incremental repair slower than from-scratch recompute on the same
    stream, same machine — fails, while the absolute latencies stay
    ungated (CI machines vary; ratios on one machine do not).
    """
    problems: list[str] = []
    if current.get("suite") != baseline.get("suite"):
        problems.append(
            f"suite mismatch: current {current.get('suite')!r} vs "
            f"baseline {baseline.get('suite')!r}")
        return problems
    cur = {w["name"]: w for w in current["workloads"]}
    base = {w["name"]: w for w in baseline["workloads"]}
    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            problems.append(f"{name}: workload missing from current run")
            continue
        if b["status"] == "ok" and c["status"] != "ok":
            err = c.get("error", {})
            problems.append(
                f"{name}: now failing ({err.get('type', 'unknown')}: "
                f"{err.get('message', '')})")
            continue
        for metric, direction in GATED_METRICS:
            bv, cv = b.get(metric), c.get(metric)
            if bv is None or cv is None \
                    or not regressed(cv, bv, direction, tolerance):
                continue
            if direction == "up":
                unit = "s" if metric.endswith("_s") else ""
                problems.append(
                    f"{name}: {metric} {cv:.6g}{unit} exceeds baseline "
                    f"{bv:.6g}{unit} by more than "
                    f"{100 * tolerance:.1f}%")
            else:
                problems.append(
                    f"{name}: {metric} {cv:.4g} fell below baseline "
                    f"{bv:.4g} by more than {100 * tolerance:.1f}%")
        # The dynamic suite's update-latency speedup floor is
        # machine-relative like the staging gate: incremental repair
        # may never lose to from-scratch recompute on the machine it
        # runs on.
        if b.get("speedup_vs_recompute") is not None:
            cs = c.get("speedup_vs_recompute")
            if not isinstance(cs, (int, float)):
                problems.append(
                    f"{name}: speedup_vs_recompute missing (recompute "
                    f"twin failed?)")
            elif cs < 1.0:
                problems.append(
                    f"{name}: incremental repair is slower than "
                    f"from-scratch recompute (speedup {cs:.3g}x < 1)")
    b_staging = baseline.get("staging")
    c_staging = current.get("staging") if b_staging else None
    if b_staging and c_staging:
        speedup = c_staging.get("speedup")
        if isinstance(speedup, (int, float)) and speedup < 1.0:
            problems.append(
                f"staging: shared-memory attach is slower than the npz "
                f"reload it replaces (speedup {speedup:.3g}x < 1)")
    return problems
