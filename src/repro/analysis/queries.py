"""Typed queries over the run store — the analysis read path.

The store (:mod:`repro.store`) holds every :class:`~repro.engine.record.
RunRecord` ever produced; this module is how anything *reads* it
analytically.  A :class:`RunQuery` names the slice (algorithm, dataset,
platform, devices, batches, status, git sha, label prefix, time
window); a :class:`ResultSet` binds a query to a store and
computes everything else lazily, FuzzBench-style — rows are fetched
once, records parsed once, aggregates memoised per metric — so a
template that only renders two sections only pays for two sections.

Filter split: the indexed columns (``algorithm``/``dataset``/
``status``/``created_at``) narrow in SQLite via
:meth:`~repro.store.db.RunStore.select`; everything that lives inside
the normalised cell config or the stored record (platform name,
devices, batches, label, git sha) refines in Python.

Replicates: bench repeats (and any deliberately re-measured cell)
differ only in their ``replicate`` index and derived seed.
:meth:`ResultSet.replicate_key` strips exactly those fields, so
"aggregate replicates" means "group by what the cell computes".
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields as _dc_fields
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro.store.fingerprint import config_digest, upgrade_config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.record import RunRecord
    from repro.store.db import RunStore, StoredRun

__all__ = [
    "METRICS",
    "RunQuery",
    "ResultSet",
    "Aggregate",
    "metric_value",
    "record_key",
]

#: Metrics the analysis plane knows how to read off a record.  Maps the
#: public metric name to an accessor; ``None``-valued metrics are
#: skipped by aggregation (e.g. ``sim_time`` of a non-simulator run).
METRICS: dict[str, Callable[["RunRecord"], float | None]] = {
    "sim_time": lambda r: r.sim_time,
    "wall_time_s": lambda r: r.wall_time_s,
    "duration_s": lambda r: r.duration_s,
    "weight": lambda r: r.weight,
    "matched_edges": lambda r: float(r.matched_edges),
    "iterations": lambda r: float(r.iterations),
    "host_entries_scanned":
        lambda r: (r.extra or {}).get("host_entries_scanned"),
}

#: Grouping keys resolvable on a record (``record_key``).
_KEYS: dict[str, Callable[["RunRecord"], Any]] = {
    "algorithm": lambda r: r.algorithm,
    "graph": lambda r: r.graph,
    "dataset": lambda r: r.dataset or r.graph,
    "platform": lambda r: r.platform,
    "num_devices": lambda r: r.num_devices,
    "num_batches": lambda r: r.num_batches,
    "seed": lambda r: r.seed,
    "status": lambda r: r.status,
    "git": lambda r: (r.provenance or {}).get("git"),
    "label": lambda r: (r.extra or {}).get("label"),
}


def metric_value(record: "RunRecord", metric: str) -> float | None:
    """``metric`` read off ``record`` (see :data:`METRICS`)."""
    try:
        fn = METRICS[metric]
    except KeyError:
        raise KeyError(f"unknown metric {metric!r}; "
                       f"have {sorted(METRICS)}") from None
    v = fn(record)
    return float(v) if v is not None else None


def record_key(record: "RunRecord", key: str) -> Any:
    """Grouping key ``key`` read off ``record`` (see ``RunQuery``)."""
    try:
        fn = _KEYS[key]
    except KeyError:
        raise KeyError(f"unknown group key {key!r}; "
                       f"have {sorted(_KEYS)}") from None
    return fn(record)


def _as_tuple(v: Any) -> tuple | None:
    if v is None:
        return None
    if isinstance(v, (str, int)):
        return (v,)
    return tuple(v)


@dataclass(frozen=True)
class RunQuery:
    """One declarative slice of the run store.

    Every field is optional; ``None`` means "any".  Multi-valued
    filters (``algorithm``, ``dataset``, ``status``, ``num_devices``)
    accept a single value or an iterable.  ``git`` matches a prefix of
    the record's provenance ``git describe`` (so a short sha works);
    ``label_prefix`` matches the start of the cell label (bench cells
    carry ``"<suite>:<entry>"`` labels); ``since``/``until`` bound the
    row's ``created_at`` in epoch seconds.
    """

    algorithm: tuple[str, ...] | None = None
    dataset: tuple[str, ...] | None = None
    status: tuple[str, ...] | None = None
    platform: str | None = None
    num_devices: tuple[int, ...] | None = None
    num_batches: int | None = None
    git: str | None = None
    label_prefix: str | None = None
    since: float | None = None
    until: float | None = None

    def __post_init__(self) -> None:
        for name in ("algorithm", "dataset", "status", "num_devices"):
            object.__setattr__(self, name,
                               _as_tuple(getattr(self, name)))

    def describe(self) -> str:
        """Human-readable one-liner of the active filters."""
        bits = []
        for f in _dc_fields(self):
            v = getattr(self, f.name)
            if v is not None:
                if isinstance(v, tuple):
                    v = ",".join(str(x) for x in v)
                bits.append(f"{f.name}={v}")
        return " ".join(bits) or "(all runs)"

    # ------------------------------------------------------------ #
    # the Python-side refinement (post-SQL)
    # ------------------------------------------------------------ #

    def matches_row(self, row: "StoredRun") -> bool:
        """Config-level refinement of one SQL-selected row."""
        cfg = row.config
        if self.platform is not None:
            name = (cfg.get("platform") or {}).get("name")
            if name != self.platform:
                return False
        if self.num_devices is not None \
                and cfg.get("num_devices") not in self.num_devices:
            return False
        if self.num_batches is not None \
                and cfg.get("num_batches") != self.num_batches:
            return False
        if self.label_prefix is not None:
            label = cfg.get("label") or ""
            if not label.startswith(self.label_prefix):
                return False
        return True

    def matches_record(self, record: "RunRecord") -> bool:
        """Record-level refinement (provenance git)."""
        if self.git is not None:
            git = (record.provenance or {}).get("git") or ""
            if not git.startswith(self.git):
                return False
        return True


@dataclass(frozen=True)
class Aggregate:
    """Replicate aggregation of one metric: location + spread.

    ``ci_lo``/``ci_hi`` are the deterministic bootstrap CI bounds on
    the median (:func:`repro.analysis.stats_tests.bootstrap_median_ci`);
    for ``n < 2`` they collapse onto the value itself.
    """

    n: int
    mean: float
    median: float
    stdev: float
    min: float
    max: float
    ci_lo: float
    ci_hi: float

    @classmethod
    def of(cls, values: Iterable[float]) -> "Aggregate | None":
        vals = [float(v) for v in values if v is not None]
        if not vals:
            return None
        from repro.analysis.stats_tests import bootstrap_median_ci

        lo, hi = bootstrap_median_ci(vals)
        return cls(
            n=len(vals),
            mean=statistics.fmean(vals),
            median=statistics.median(vals),
            stdev=statistics.stdev(vals) if len(vals) > 1 else 0.0,
            min=min(vals),
            max=max(vals),
            ci_lo=lo,
            ci_hi=hi,
        )

    def to_dict(self) -> dict[str, float]:
        return {k: getattr(self, k)
                for k in ("n", "mean", "median", "stdev", "min", "max",
                          "ci_lo", "ci_hi")}


class ResultSet:
    """A query bound to a store, with lazily-computed derived views.

    Expensive steps — the SQL fetch, record parsing, per-metric
    aggregation — run once on first access and are memoised on the
    instance (``cached_property``), so using a ``ResultSet`` as a
    report-template context only computes what the template touches.
    """

    def __init__(self, store: "RunStore",
                 query: RunQuery | None = None) -> None:
        self.store = store
        self.query = query or RunQuery()
        self._aggregates: dict[tuple, Any] = {}

    # ------------------------------------------------------------ #
    # the lazy pipeline: rows -> records -> groups/aggregates
    # ------------------------------------------------------------ #

    @cached_property
    def rows(self) -> list["StoredRun"]:
        """Matching store rows (SQL narrow + config refinement)."""
        q = self.query
        rows = self.store.select(
            algorithm=q.algorithm, dataset=q.dataset, status=q.status,
            created_after=q.since, created_before=q.until,
        )
        return [r for r in rows if q.matches_row(r)]

    @cached_property
    def records(self) -> list["RunRecord"]:
        """Parsed records of every matching ``done``/``error`` row, in
        row order (rows without a record are skipped)."""
        out = []
        for row in self.rows:
            rec = row.record()
            if rec is not None and self.query.matches_record(rec):
                out.append(rec)
        return out

    @cached_property
    def ok_records(self) -> list["RunRecord"]:
        return [r for r in self.records if r.ok]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator["RunRecord"]:
        return iter(self.records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResultSet({self.query.describe()}: "
                f"{len(self.rows)} rows)")

    # ------------------------------------------------------------ #
    # grouping
    # ------------------------------------------------------------ #

    @staticmethod
    def replicate_key(row: "StoredRun") -> str:
        """Config digest with the replicate-only fields stripped.

        Two rows share a replicate key exactly when they measure the
        same configuration: ``replicate`` (the repeat index) and
        ``seed`` (derived per cell index, so it tracks the repeat) are
        dropped; everything else — algorithm, graph source, platform,
        devices, batches, overrides, label — must agree.  Configs are
        upgraded first (:func:`~repro.store.fingerprint.upgrade_config`),
        so rows stored before a config-shape change group with new ones.
        """
        cfg = {k: v for k, v in upgrade_config(row.config).items()
               if k not in ("replicate", "seed")}
        return config_digest(cfg)

    @cached_property
    def replicate_groups(self) -> dict[str, list["StoredRun"]]:
        """Rows grouped by :meth:`replicate_key` (insertion-ordered)."""
        groups: dict[str, list] = {}
        for row in self.rows:
            groups.setdefault(self.replicate_key(row), []).append(row)
        return groups

    def group_records(self, *keys: str
                      ) -> dict[tuple, list["RunRecord"]]:
        """Records grouped by the named keys (:func:`record_key`)."""
        groups: dict[tuple, list] = {}
        for rec in self.ok_records:
            k = tuple(record_key(rec, key) for key in keys)
            groups.setdefault(k, []).append(rec)
        return groups

    # ------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------ #

    def aggregate(self, metric: str, by: tuple[str, ...] =
                  ("algorithm", "dataset")) -> dict[tuple, Aggregate]:
        """``Aggregate`` of ``metric`` per ``by``-group (memoised).

        Groups whose every record lacks the metric (e.g. ``sim_time``
        of a pure-CPU solver) are dropped rather than reported as
        zeros.
        """
        memo_key = (metric, by)
        cached = self._aggregates.get(memo_key)
        if cached is not None:
            return cached
        out: dict[tuple, Aggregate] = {}
        for k, recs in self.group_records(*by).items():
            agg = Aggregate.of(metric_value(r, metric) for r in recs)
            if agg is not None:
                out[k] = agg
        self._aggregates[memo_key] = out
        return out

    def pivot(self, metric: str, row_key: str = "dataset",
              col_key: str = "algorithm", stat: str = "median",
              ) -> tuple[list[str], list[list[Any]]]:
        """``(headers, rows)`` pivot of an aggregated metric.

        The paper-table shape: one row per ``row_key`` value, one
        column per ``col_key`` value, cells the chosen ``stat`` of the
        per-group aggregate (``None`` renders as the paper's '-').
        """
        aggs = self.aggregate(metric, by=(row_key, col_key))
        row_vals = sorted({k[0] for k in aggs}, key=str)
        col_vals = sorted({k[1] for k in aggs}, key=str)
        headers = [row_key] + [str(c) for c in col_vals]
        table = []
        for rv in row_vals:
            line: list[Any] = [str(rv)]
            for cv in col_vals:
                agg = aggs.get((rv, cv))
                line.append(getattr(agg, stat) if agg else None)
            table.append(line)
        return headers, table

    # ------------------------------------------------------------ #
    # tabular summaries (CLI `analysis query` / `store ls`)
    # ------------------------------------------------------------ #

    def summary_rows(self) -> list[list[Any]]:
        """One row per store row: the ``store ls`` listing shape.

        ``state`` is the job-facing view (cancelled rows show as
        ``cancelled``, not their underlying ``pending``/``error``)."""
        return [[r.fingerprint[:17], r.algorithm, r.dataset or "-",
                 r.state, r.attempts, r.worker or "-"]
                for r in self.rows]

    def to_documents(self) -> list[dict[str, Any]]:
        """JSON-safe per-row documents (fingerprint + labels + status)."""
        return [{"fingerprint": r.fingerprint,
                 "algorithm": r.algorithm,
                 "dataset": r.dataset,
                 "status": r.status,
                 "state": r.state,
                 "attempts": r.attempts,
                 "seed": r.seed,
                 "worker": r.worker,
                 "priority": r.priority,
                 "client": r.client,
                 "label": r.config.get("label"),
                 "replicate": r.config.get("replicate"),
                 "created_at": r.created_at}
                for r in self.rows]
