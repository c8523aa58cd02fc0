"""Per-run profiling reports — the simulator's ``nvprof``.

Turns a finished LD-GPU :class:`~repro.matching.types.MatchResult` into
the per-iteration table a profiler would show: component milliseconds,
edges scanned, occupancy, matches committed.  The CLI exposes it as
``repro-matching run --profile``.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.timeline import COMPONENTS
from repro.harness.report import format_table
from repro.matching.types import MatchResult

__all__ = ["profile_report", "iteration_rows"]


def _as_match_result(result) -> MatchResult:
    """Unwrap an engine :class:`~repro.engine.record.RunRecord`."""
    if isinstance(result, MatchResult):
        return result
    inner = getattr(result, "result", None)
    return inner if inner is not None else result


def iteration_rows(result) -> list[list]:
    """One row per iteration: times (ms) per component + work stats.

    Accepts a :class:`MatchResult` or an engine ``RunRecord``; requires
    a run produced with ``collect_stats=True`` and a timeline (i.e. an
    ``ld_gpu`` run).
    """
    result = _as_match_result(result)
    if result.timeline is None:
        raise ValueError("result carries no timeline — run ld_gpu with "
                         "a simulator-backed algorithm")
    records = result.timeline.iterations
    scanned = result.stats.get("edges_scanned")
    occ = result.stats.get("occupancy")
    matches = result.stats.get("new_matches")

    def stat(series, it):
        """Series value for iteration ``it``, None when the series is
        absent or shorter than the timeline (e.g. a merged timeline or
        a stats-free rerun)."""
        return series[it] if series is not None and it < len(series) \
            else None

    rows = []
    for it, rec in enumerate(records):
        row: list = [it]
        row.extend(1e3 * rec[c] for c in COMPONENTS)
        row.append(1e3 * sum(rec.values()))
        s, o, m = stat(scanned, it), stat(occ, it), stat(matches, it)
        row.append(int(s) if s is not None else None)
        row.append(100.0 * float(o) if o is not None else None)
        row.append(int(m) if m is not None else None)
        rows.append(row)
    return rows


def profile_report(result) -> str:
    """The full profiler table plus a summary footer (accepts a
    :class:`MatchResult` or an engine ``RunRecord``)."""
    result = _as_match_result(result)
    rows = iteration_rows(result)
    headers = (
        ["iter"]
        + [f"{c} (ms)" for c in COMPONENTS]
        + ["total (ms)", "edges scanned", "occ %", "matches"]
    )
    table = format_table(headers, rows, floatfmt=".3f",
                         title=f"{result.algorithm} profile "
                               f"({result.iterations} iterations)")
    t = result.timeline
    footer = (
        f"\ntotal {1e3 * t.total:.3f} ms | communication "
        f"{100.0 * t.communication_fraction():.1f}% | "
        f"weight {result.weight:.6f} | "
        f"{result.num_matched_edges} matched edges"
    )
    scanned = result.stats.get("edges_scanned")
    if scanned is not None and len(scanned):
        footer += (
            f"\nedge traffic: {int(np.sum(scanned))} total scans, "
            f"{100.0 * scanned[0] / max(np.sum(scanned), 1):.1f}% in "
            f"iteration 0"
        )
    return table + footer
