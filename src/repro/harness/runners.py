"""The paper's best-over-sweep reporting protocol.

:func:`fastest` is the one best-over-grid reducer: Tables I and VI,
Fig. 4 and :func:`best_ld_gpu` all pick their winner with it.
:func:`checked` is the one failure rule of a reduced grid and
:func:`check_lemma` its one Lemma III.1 check.  They read only
:class:`~repro.engine.record.RunRecord` fields, so store-served records
reduce exactly like freshly executed ones.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

import numpy as np

from repro.engine.cells import Cell, run_cells
from repro.engine.errors import ConfigurationDivergenceError
from repro.engine.record import RunRecord
from repro.engine.spec import get_spec
from repro.graph.csr import CSRGraph
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_A100, PlatformSpec
from repro.harness.sweep import (
    TABLE1_BATCH_COUNTS,
    TABLE1_DEVICE_COUNTS,
    sweep_cells,
)
from repro.matching.types import MatchResult
from repro.store.db import FINAL_ERROR

__all__ = ["best_ld_gpu", "check_lemma", "checked", "fastest"]


def checked(records: Sequence[RunRecord]) -> list[RunRecord | None]:
    """A grid's records ready to reduce: out-of-memory cells
    (:data:`~repro.store.db.FINAL_ERROR`) become ``None``, rendered "-"
    like the runs the paper could not perform; any other error record
    raises a ``RuntimeError`` naming its cell."""
    out: list[RunRecord | None] = []
    for r in records:
        if not r.ok and r.error["type"] != FINAL_ERROR:
            raise RuntimeError(
                f"cell {r.algorithm} on {r.dataset or r.graph} (platform="
                f"{r.platform}, num_devices={r.num_devices}, num_batches="
                f"{r.num_batches}) crashed ({r.error['type']}: "
                f"{r.error['message']})\n"
                f"{r.error['traceback']}")
        out.append(r if r.ok else None)
    return out


def check_lemma(records: Iterable[RunRecord | None]) -> None:
    """Lemma III.1 over a grid: every freshly executed ``ld_gpu`` record
    of one graph carries the same mate array, or this raises
    :class:`ConfigurationDivergenceError` naming two configurations that
    disagree.  Store-served and out-of-memory records carry none."""
    first: dict[str, tuple[np.ndarray, str]] = {}
    for r in records:
        if r is None or r.result is None or r.algorithm != "ld_gpu":
            continue
        config = (f"{r.platform}: {r.num_devices} devices x "
                  f"{r.num_batches or 'auto'} batches")
        mate, ref_config = first.setdefault(r.graph,
                                            (r.result.mate, config))
        if not np.array_equal(mate, r.result.mate):
            raise ConfigurationDivergenceError("ld_gpu", ref_config,
                                               config)


def fastest(records: Iterable[RunRecord | None]) -> RunRecord | None:
    """The record with the least ``sim_time`` (the first on ties),
    skipping ``None`` (out-of-memory) entries; ``None`` if all are."""
    best = None
    for r in records:
        if r is not None and (best is None or r.sim_time < best.sim_time):
            best = r
    return best


def _ld_gpu_current(graph: CSRGraph, **kwargs: Any) -> MatchResult:
    """LD-GPU resolved at call time through its module attribute.

    ``best_ld_gpu`` binds this (not the registered function object) so
    monkeypatched ``repro.matching.ld_gpu.ld_gpu`` replacements take
    effect; module-level, so it pickles to worker processes.  Resolved
    through ``importlib`` because the package attribute of the same
    name is shadowed by the function it exports.
    """
    import importlib

    return importlib.import_module("repro.matching.ld_gpu") \
        .ld_gpu(graph, **kwargs)


def best_ld_gpu(
    graph: CSRGraph,
    platform: PlatformSpec = DGX_A100,
    device_counts: tuple[int, ...] = TABLE1_DEVICE_COUNTS,
    batch_counts: tuple[int | None, ...] = TABLE1_BATCH_COUNTS,
    collect_stats: bool = False,
    parallel: int = 0,
    store: Any = None,
) -> tuple[MatchResult, int, int]:
    """The paper's reporting protocol for Table I: run LD-GPU over the
    device grid :data:`~repro.harness.sweep.TABLE1_DEVICE_COUNTS` and the
    batch grid :data:`~repro.harness.sweep.TABLE1_BATCH_COUNTS` (auto
    plus every studied count below 15) and keep the fastest.

    Returns ``(result, num_devices, num_batches)`` of the winner.
    Configurations that cannot fit memory are skipped (they are the runs
    the paper could not perform either).  ``parallel=N`` fans the grid
    out to N worker processes with an identical winner.  ``store`` (a
    :class:`~repro.store.db.RunStore` or path) serves already-stored
    configurations without recompute; the winner is identical because
    the selection reads ``record.sim_time``, which serialises exactly.
    Store-served records carry no mate array, so the Lemma III.1
    divergence check covers only the freshly executed configurations,
    and a winner served from the store is re-executed once to produce
    its :class:`MatchResult`.

    Raises
    ------
    ConfigurationDivergenceError
        If any two configurations disagree on the mate array — LD
        matching is configuration-independent (Lemma III.1), so a
        divergence means broken code, not a slow run.
    DeviceOOMError
        If every configuration of the sweep runs out of device memory.
    """
    spec = dataclasses.replace(get_spec("ld_gpu"), fn=_ld_gpu_current)
    cells = sweep_cells((platform,), device_counts, batch_counts,
                        algorithm=spec, collect_stats=collect_stats)
    records = checked(run_cells(cells, graph=graph, parallel=parallel,
                                store=store))
    check_lemma(records)
    best = fastest(records)
    if best is None:
        raise DeviceOOMError(platform.device.name, 0, 0,
                             platform.device.memory_bytes)
    nd, nb = best.num_devices, best.num_batches
    if best.result is None:
        # The winner came out of the store; one fresh execution yields
        # the in-memory MatchResult callers expect (mate array, stats).
        winner = Cell(spec, config={"platform": platform,
                                    "num_devices": nd,
                                    "num_batches": nb},
                      overrides={"collect_stats": collect_stats})
        best = run_cells([winner], graph=graph, on_error="raise")[0]
    return best.result, nd, nb
