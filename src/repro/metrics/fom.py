"""Figure of Merit: Mega-Matching Edges per Second (MMEPS).

§IV-D: *"we correlate the rate at which edges are committed to the
matching"* — matched edges (in millions) divided by the execution time of
the pointing/matching phases.  Higher is better; it rewards both quality
(more matched edges) and speed, making heterogeneous implementations
comparable.
"""

from __future__ import annotations

from typing import Any

from repro.matching.types import MatchResult

__all__ = ["mmeps"]


def mmeps(run: Any, seconds: float | None = None) -> float:
    """MMEPS of a matching run: a :class:`MatchResult`, or a
    :class:`~repro.engine.record.RunRecord` (its ``matched_edges``).

    ``seconds`` defaults to the run's modeled ``sim_time``; pass a
    measured wall time to rate a real execution instead.
    """
    edges = run.num_matched_edges if isinstance(run, MatchResult) \
        else run.matched_edges
    t = seconds if seconds is not None else run.sim_time
    if t is None:
        raise ValueError(
            "result carries no sim_time; pass an explicit seconds value"
        )
    if t <= 0:
        raise ValueError("time must be positive")
    return (edges / 1e6) / t
