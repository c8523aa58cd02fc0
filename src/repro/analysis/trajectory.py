"""Bench trajectories: metric time-series across commits and runs.

A single ``BENCH_<suite>.json`` answers "is this commit fast?"; this
module answers "when did it get slow?".  It stitches together every
measurement of a bench workload it can find —

* the committed baseline documents (``benchmarks/baseline_<suite>.
  json``), one point per suite stamped with the git describe of the
  commit that produced it, and
* the run store, where :func:`~repro.harness.bench.run_bench` appends
  every (workload, replicate) record under a suite-qualified cell
  label (``"<suite>:<name>"``) whenever it runs with ``store=``,

— into one ordered series per (suite, workload): replicates collapse
to medians, points group by the git sha in the record's provenance
manifest, and ordering follows real time (``started_at``, a schema-v4
field; rows predating it fall back to the store row's ``created_at``;
the committed baseline sorts first as the series anchor).

:func:`flag_regressions` then applies the bench gate's rule along the
series: the latest point is compared against its predecessor on the
gate's own metric table (:data:`repro.harness.bench.GATED_METRICS`,
each in its regression direction) with the same relative tolerance the
CI gate uses, so the report's trend lines carry the same verdict CI
would.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING

from repro.harness.bench import (
    GATED_METRICS,
    SUITES,
    baseline_report_path,
    regressed,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.db import RunStore

__all__ = [
    "TrajectoryPoint",
    "RegressionFlag",
    "load_baselines",
    "store_trajectories",
    "suite_trajectories",
    "flag_regressions",
]

#: Trajectories track the gated metrics plus the informational
#: wall-clock median.
_METRICS = tuple(m for m, _ in GATED_METRICS) + ("median_wall_time_s",)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One measurement of one workload: replicate medians at a commit.

    ``source`` is ``"baseline"`` for a committed
    ``benchmarks/baseline_*.json`` point and ``"store"`` for a point
    aggregated from run-store records; ``n`` counts the replicates that
    produced the medians.  ``started_at`` is ``None`` on baseline
    points (they anchor the series and sort first).
    """

    git: str | None
    source: str
    n: int
    started_at: float | None = None
    metrics: dict[str, float | None] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"git": self.git, "source": self.source, "n": self.n,
                "started_at": self.started_at,
                "metrics": dict(self.metrics)}


@dataclass(frozen=True)
class RegressionFlag:
    """The gate's verdict on the latest point of one series.

    ``flagged`` is True when ``latest`` moved past ``reference`` in the
    metric's regression direction by more than the tolerance — the
    exact rule :func:`repro.harness.bench.compare_reports` applies
    (:func:`~repro.harness.bench.regressed`), evaluated along the
    trajectory instead of against a single file.  ``ratio`` is
    ``latest / reference`` (1.0 = flat).
    """

    suite: str
    entry: str
    metric: str
    latest: float
    reference: float
    reference_source: str
    ratio: float
    flagged: bool

    def to_dict(self) -> dict[str, Any]:
        return {"suite": self.suite, "entry": self.entry,
                "metric": self.metric, "latest": self.latest,
                "reference": self.reference,
                "reference_source": self.reference_source,
                "ratio": self.ratio, "flagged": self.flagged}


def _median(values: list[Any]) -> float | None:
    vals = [float(v) for v in values if v is not None]
    return statistics.median(vals) if vals else None


def load_baselines(bench_dir: "Path | str | None" = None
                   ) -> dict[str, dict[str, Any]]:
    """The committed baseline document of every bench suite, by suite
    (:func:`~repro.harness.bench.baseline_report_path` under
    ``bench_dir``).

    Missing and unparseable files are skipped (a half-written baseline
    must not take the whole report down).
    """
    out: dict[str, dict[str, Any]] = {}
    for suite in sorted(SUITES):
        path = baseline_report_path(suite, bench_dir)
        if not path.is_file():
            continue
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and doc.get("workloads"):
            out[suite] = doc
    return out


def _baseline_points(doc: dict[str, Any]
                     ) -> dict[str, TrajectoryPoint]:
    git = (doc.get("provenance") or {}).get("git")
    repeats = int(doc.get("repeats") or 1)
    points = {}
    for w in doc["workloads"]:
        if w.get("status") != "ok":
            continue
        points[w["name"]] = TrajectoryPoint(
            git=git, source="baseline", n=repeats,
            metrics={m: w.get(m) for m in _METRICS})
    return points


def store_trajectories(store: "RunStore",
                       ) -> dict[str, dict[str, list[TrajectoryPoint]]]:
    """Per-(suite, workload) points recovered from the run store.

    Scans the ``done`` rows whose cell label is suite-qualified
    (``"<suite>:<name>"`` — only bench runs write those), groups each
    workload's replicates by the git sha in the record's provenance,
    and emits one median point per (workload, sha), ordered by real
    start time.
    """
    groups: dict[tuple[str, str, str | None], list] = {}
    for row in store.select(status="done"):
        label = row.config.get("label") or ""
        suite, sep, entry = label.partition(":")
        if not sep or not suite or not entry:
            continue
        rec = row.record()
        if rec is None or not rec.ok:
            continue
        git = (rec.provenance or {}).get("git")
        key = (suite, entry, git)
        groups.setdefault(key, []).append(
            (rec, rec.started_at if rec.started_at is not None
             else row.created_at))

    out: dict[str, dict[str, list[TrajectoryPoint]]] = {}
    for (suite, entry, git), members in groups.items():
        recs = [m[0] for m in members]
        # Sim and wall time are record fields; every other tracked
        # metric is a record extra under the report's key.
        metrics = {m: _median([(r.extra or {}).get(m) for r in recs])
                   for m in _METRICS}
        metrics["median_sim_time_s"] = _median([r.sim_time for r in recs])
        metrics["median_wall_time_s"] = _median(
            [r.wall_time_s for r in recs])
        point = TrajectoryPoint(
            git=git, source="store", n=len(recs),
            started_at=min(m[1] for m in members), metrics=metrics)
        out.setdefault(suite, {}).setdefault(entry, []).append(point)
    for entries in out.values():
        for points in entries.values():
            points.sort(key=lambda p: (p.started_at or 0.0,
                                       p.git or ""))
    return out


def suite_trajectories(store: "RunStore | None" = None,
                       bench_dir: "Path | str | None" = None,
                       suites: "list[str] | None" = None,
                       ) -> dict[str, dict[str, list[TrajectoryPoint]]]:
    """The merged series: committed baseline anchor + store history.

    ``suites`` restricts the result (default: everything found in
    either source).  Per workload, the baseline point (when one
    exists) leads and store points follow in start-time order.
    """
    merged: dict[str, dict[str, list[TrajectoryPoint]]] = {}
    for suite, doc in load_baselines(bench_dir).items():
        for entry, point in _baseline_points(doc).items():
            merged.setdefault(suite, {})[entry] = [point]
    if store is not None:
        for suite, entries in store_trajectories(store).items():
            for entry, points in entries.items():
                merged.setdefault(suite, {}).setdefault(
                    entry, []).extend(points)
    if suites is not None:
        wanted = set(suites)
        merged = {s: e for s, e in merged.items() if s in wanted}
    return merged


def flag_regressions(
    trajectories: dict[str, dict[str, list[TrajectoryPoint]]],
    tolerance: float = 0.05,
) -> list[RegressionFlag]:
    """The bench gate's rule applied to the tail of every series.

    For every (suite, workload) series with at least two points, each
    gated metric's latest value is compared against the previous
    point's; the comparison is emitted whether or not it trips, with
    ``flagged`` saying whether it did — the report renders flat series
    green and tripped ones with the critical marker.  Metrics missing
    on either side (e.g. ``host_entries_scanned`` under
    ``collect_stats=False``, or ``approx_ratio_vs_blossom``, which
    only a whole coreset suite run computes) are skipped, matching the
    file gate.
    """
    flags: list[RegressionFlag] = []
    for suite in sorted(trajectories):
        for entry in sorted(trajectories[suite]):
            points = trajectories[suite][entry]
            if len(points) < 2:
                continue
            latest, reference = points[-1], points[-2]
            for metric, direction in GATED_METRICS:
                cur = latest.metrics.get(metric)
                ref = reference.metrics.get(metric)
                if cur is None or ref is None or ref <= 0:
                    continue
                ratio = cur / ref
                flags.append(RegressionFlag(
                    suite=suite, entry=entry, metric=metric,
                    latest=cur, reference=ref,
                    reference_source=reference.source,
                    ratio=ratio,
                    flagged=regressed(cur, ref, direction,
                                      tolerance)))
    return flags
