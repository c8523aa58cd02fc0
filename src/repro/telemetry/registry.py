"""Metrics registry — Counters, Gauges and fixed-bucket Histograms.

The registry is the numeric half of :mod:`repro.telemetry`: every
instrumented layer (the :mod:`repro.gpusim` device model, the LD-GPU
iteration loop, the engine executor) emits into one
:class:`MetricsRegistry`, and exporters turn an immutable
:meth:`MetricsRegistry.snapshot` into Prometheus text or a JSON metrics
document.  The design follows the Prometheus client-library data model —
metric *families* keyed by name, carrying typed *children* keyed by their
label set — because that is the shape both export formats need.

Values are plain Python floats; nothing here is thread-aware (the
simulator is single-threaded) and nothing here touches the wall clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "aggregate_snapshots",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
]

#: Log-spaced bucket bounds for modeled durations: the simulator spans
#: sub-microsecond kernel launches to minute-scale LARGE-graph runs.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0, 600.0,
)

#: Bucket bounds for transfer sizes (bytes), 4 KiB to 64 GiB.
DEFAULT_BYTES_BUCKETS: tuple[float, ...] = tuple(
    4096.0 * 16**k for k in range(9)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Reserved label the histogram exposition uses for bucket bounds.
_RESERVED_LABELS = frozenset({"le"})


def _labels_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    """Validated, sorted, stringified label set (the child key)."""
    out = []
    for k in sorted(labels):
        if not _LABEL_RE.match(k) or k in _RESERVED_LABELS:
            raise ValueError(f"invalid label name {k!r}")
        out.append((k, str(labels[k])))
    return tuple(out)


class Counter:
    """Monotonically increasing value (counts, accumulated seconds)."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can be set to anything (fractions, configuration)."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with cumulative exposition.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` exclusively
    of earlier buckets (non-cumulative storage); the exporter emits the
    Prometheus cumulative form including the implicit ``+Inf`` bucket.
    """

    def __init__(self, bounds: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> list[int]:
        """Counts ``<= bound`` per bound plus the ``+Inf`` total."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


@dataclass
class _Family:
    """One metric family: a name, a type, help text, typed children."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    children: dict[tuple[tuple[str, str], ...], Any]
    bounds: tuple[float, ...] | None = None  # histograms only


class MetricsRegistry:
    """Holds metric families and hands out their children.

    ``registry.counter("repro_spans_total", "...", component="sync")``
    returns the child for that exact label set, creating family and child
    on first use.  Re-registering a name as a different type (or a
    histogram with different buckets) is an error — names are the
    contract the exporters and dashboards rely on.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -------------------------------------------------------------- #
    def _family(self, name: str, kind: str, help: str,
                bounds: tuple[float, ...] | None = None) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, kind, help, {}, bounds)
            self._families[name] = fam
            return fam
        if fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}"
            )
        if kind == "histogram" and fam.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different "
                f"buckets"
            )
        if help and not fam.help:
            fam.help = help
        return fam

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The :class:`Counter` child of ``name`` for ``labels``."""
        fam = self._family(name, "counter", help)
        key = _labels_key(labels)
        child = fam.children.get(key)
        if child is None:
            child = fam.children[key] = Counter()
        return child

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """The :class:`Gauge` child of ``name`` for ``labels``."""
        fam = self._family(name, "gauge", help)
        key = _labels_key(labels)
        child = fam.children.get(key)
        if child is None:
            child = fam.children[key] = Gauge()
        return child

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
                  **labels: Any) -> Histogram:
        """The :class:`Histogram` child of ``name`` for ``labels``."""
        bounds = tuple(float(b) for b in buckets)
        fam = self._family(name, "histogram", help, bounds)
        key = _labels_key(labels)
        child = fam.children.get(key)
        if child is None:
            child = fam.children[key] = Histogram(bounds)
        return child

    # -------------------------------------------------------------- #
    def snapshot(self) -> "MetricsSnapshot":
        """An immutable copy of every family's current state."""
        families: dict[str, dict[str, Any]] = {}
        for name, fam in sorted(self._families.items()):
            samples = []
            for key, child in sorted(fam.children.items()):
                labels = dict(key)
                if fam.kind == "histogram":
                    samples.append({
                        "labels": labels,
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": list(zip(fam.bounds,
                                            child.cumulative_counts())),
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            families[name] = {
                "type": fam.kind,
                "help": fam.help,
                "samples": samples,
            }
            if fam.bounds is not None:
                families[name]["buckets"] = list(fam.bounds)
        return MetricsSnapshot(families)


class MetricsSnapshot:
    """Frozen view of a registry — what exporters and aggregators see.

    ``families`` maps metric name to ``{"type", "help", "samples"}``;
    histogram samples carry ``sum``/``count`` and cumulative ``buckets``
    as ``(upper_bound, count<=bound)`` pairs (the ``+Inf`` entry is
    implicit: it equals ``count``).
    """

    def __init__(self, families: dict[str, dict[str, Any]]) -> None:
        self.families = families

    def __contains__(self, name: str) -> bool:
        return name in self.families

    def samples(self, name: str) -> list[dict[str, Any]]:
        """All samples of one family ([] when absent)."""
        fam = self.families.get(name)
        return fam["samples"] if fam else []

    def total(self, name: str, **label_filter: Any) -> float:
        """Sum of matching sample values (histograms contribute ``sum``).

        The reconciliation helper: ``snapshot.total(
        "repro_component_seconds_total", component="sync")`` must equal
        ``Timeline.totals["sync"]`` for an instrumented run.
        """
        want = {k: str(v) for k, v in label_filter.items()}
        out = 0.0
        for s in self.samples(name):
            if all(s["labels"].get(k) == v for k, v in want.items()):
                out += s["sum"] if "sum" in s else s["value"]
        return out

    def value(self, name: str, **label_filter: Any) -> float | None:
        """The value of the single sample matching the filter.

        The point-read companion to :meth:`total`: ``None`` when no
        sample matches, the scalar value (histogram ``sum``) when
        exactly one does, and ``ValueError`` when several do — a
        report that meant ``total`` should say so rather than silently
        read the first.
        """
        want = {k: str(v) for k, v in label_filter.items()}
        matches = [s for s in self.samples(name)
                   if all(s["labels"].get(k) == v
                          for k, v in want.items())]
        if not matches:
            return None
        if len(matches) > 1:
            raise ValueError(
                f"{name}{want or ''} matches {len(matches)} samples; "
                f"use total() to aggregate or narrow the labels")
        s = matches[0]
        return s["sum"] if "sum" in s else s["value"]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe nested dict (used by the JSON exporter)."""
        import copy

        return copy.deepcopy(self.families)

    def merged_with(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Cell-wise merge: counters/histograms add, gauges last-wins.

        The sweep aggregator uses this to fold per-cell snapshots into
        one distribution (e.g. span-seconds histograms across a whole
        (devices × batches) grid).  Merging a histogram family observed
        with different bucket bounds is an error.
        """
        merged = self.to_dict()
        for name, fam in other.families.items():
            if name not in merged:
                import copy

                merged[name] = copy.deepcopy(fam)
                continue
            mine = merged[name]
            if mine["type"] != fam["type"]:
                raise ValueError(
                    f"cannot merge {name!r}: {mine['type']} vs "
                    f"{fam['type']}"
                )
            if mine.get("buckets") != fam.get("buckets"):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds "
                    f"differ"
                )
            by_labels = {tuple(sorted(s["labels"].items())): s
                         for s in mine["samples"]}
            for s in fam["samples"]:
                key = tuple(sorted(s["labels"].items()))
                tgt = by_labels.get(key)
                if tgt is None:
                    import copy

                    new = copy.deepcopy(s)
                    mine["samples"].append(new)
                    by_labels[key] = new
                elif mine["type"] == "histogram":
                    tgt["sum"] += s["sum"]
                    tgt["count"] += s["count"]
                    tgt["buckets"] = [
                        (b, c1 + c2) for (b, c1), (_, c2)
                        in zip(tgt["buckets"], s["buckets"])
                    ]
                elif mine["type"] == "counter":
                    tgt["value"] += s["value"]
                else:  # gauge: last writer wins
                    tgt["value"] = s["value"]
            mine["samples"].sort(
                key=lambda s: tuple(sorted(s["labels"].items()))
            )
        return MetricsSnapshot(merged)


def aggregate_snapshots(
    snapshots: Iterable[MetricsSnapshot],
) -> MetricsSnapshot:
    """Fold many snapshots into one (see :meth:`MetricsSnapshot.merged_with`)."""
    out = MetricsSnapshot({})
    for snap in snapshots:
        out = out.merged_with(snap)
    return out
