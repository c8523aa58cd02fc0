"""Content-addressed cell fingerprints and config (de)normalisation.

A grid cell's identity in the run store is *what it computes*, not where
it sat in some grid: the fingerprint hashes the algorithm name, the
fully normalised configuration (platform/CPU specs flattened to plain
dicts, overrides coerced to JSON), the effective per-cell seed, the
input graph's content fingerprint (:func:`~repro.telemetry.provenance.
graph_fingerprint` — the same hash the provenance manifest and the
graph cache use) and the :data:`~repro.engine.record.SCHEMA_VERSION` of
the records being stored.  Two cells with the same fingerprint produce
bit-identical :class:`~repro.engine.record.RunRecord`\\ s, so a stored
``done`` row can stand in for a re-run; any change to the inputs — a
different seed, a rescaled platform, a record-schema bump — changes the
fingerprint and forces a fresh run instead of serving stale results.

The normalised config is stored alongside the fingerprint and is
*reconstructible*: :func:`cell_from_config` turns it back into a
:class:`~repro.engine.cells.Cell` (with its exact
:class:`~repro.engine.context.RunContext`), which is what lets
``repro-matching store resume`` re-run precisely the pending/failed
cells of a crashed sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cells import Cell
    from repro.engine.context import RunContext
    from repro.graph.csr import CSRGraph

__all__ = [
    "cell_config",
    "cell_fingerprint",
    "cell_from_config",
    "config_digest",
    "fingerprint_for",
    "shared_graph_dataset",
    "upgrade_config",
]


def _builder_ref(build: Any) -> str | None:
    """``module:qualname`` of a module-level builder callable."""
    if build is None:
        return None
    return f"{build.__module__}:{build.__qualname__}"


def _import_builder(ref: str) -> Any:
    import importlib

    module, _, qualname = ref.partition(":")
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def cell_config(cell: "Cell", ctx: "RunContext") -> dict[str, Any]:
    """The full normalised configuration of one materialised cell.

    Everything that determines the produced record appears here in a
    JSON-stable shape: the platform and CPU *specs* are flattened via
    ``dataclasses.asdict`` (name alone would collapse the harness's
    bandwidth-scaled variants onto their base platforms), the builder
    callable becomes its ``module:qualname`` reference, and ``seed`` is
    the *effective* per-cell seed (post
    :func:`~repro.engine.cells.derive_cell_seed`).  ``ctx`` must be the
    materialised context, not the base one.
    """
    from repro.engine.record import _coerce

    return {
        "algorithm": cell.algorithm_name,
        "dataset": cell.dataset,
        "quality": bool(cell.quality),
        "builder": _builder_ref(cell.build),
        "ctx_dataset": ctx.dataset,
        "platform": dataclasses.asdict(ctx.resolved_platform()),
        "cpu": dataclasses.asdict(ctx.resolved_cpu()),
        "num_devices": ctx.num_devices,
        "num_batches": ctx.num_batches,
        "seed": ctx.seed,
        "overrides": _coerce(dict(cell.overrides)),
        "label": cell.label,
        "replicate": cell.replicate,
    }


def config_digest(config: dict[str, Any]) -> str:
    """Canonical JSON of a config dict (sorted keys, tight separators).

    Non-JSON override values degrade to ``repr`` — still deterministic
    for fingerprinting, though such cells cannot be resumed faithfully.
    """
    return json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=repr)


def cell_fingerprint(
    config: dict[str, Any],
    graph_fingerprint: str,
    record_schema: int | None = None,
) -> str:
    """Content hash addressing one cell in the run store.

    Covers the normalised ``config`` (which embeds algorithm name and
    effective seed), the input graph's content ``graph_fingerprint``,
    and the :class:`~repro.engine.record.RunRecord` schema version —
    bumping the record schema invalidates stored rows rather than
    serving records a newer reader cannot trust.
    """
    if record_schema is None:
        from repro.engine.record import SCHEMA_VERSION

        record_schema = SCHEMA_VERSION
    payload = (f"schema={record_schema};graph={graph_fingerprint};"
               f"config={config_digest(config)}")
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"cell:{digest[:40]}"


def fingerprint_for(cell: "Cell", ctx: "RunContext",
                    graph: "CSRGraph") -> tuple[str, dict[str, Any], str]:
    """``(fingerprint, config, graph_fingerprint)`` for one bound cell."""
    from repro.telemetry.provenance import graph_fingerprint

    config = cell_config(cell, ctx)
    gfp = graph_fingerprint(graph)
    return cell_fingerprint(config, gfp), config, gfp


def upgrade_config(config: dict[str, Any]) -> dict[str, Any]:
    """A stored config in the current :func:`cell_config` shape.

    Older rows carry a ``pointing_engine`` field: ``null`` is dropped,
    so the row rebuilds as today's cell, and a set engine moves to
    ``overrides["engine"]``.  No algorithm takes that keyword any more,
    so such a cell runs to an explicit error record.  Rows with a set
    engine fingerprint differently, so they are recomputed on request,
    never served.
    """
    if "pointing_engine" not in config:
        return config
    config = dict(config)
    engine = config.pop("pointing_engine")
    if engine is not None:
        config["overrides"] = {**(config.get("overrides") or {}),
                               "engine": engine}
    return config


def _platform_from(d: dict[str, Any]):
    from repro.comm.topology import Interconnect
    from repro.gpusim.spec import DeviceSpec, PlatformSpec

    return PlatformSpec(
        name=d["name"],
        device=DeviceSpec(**d["device"]),
        max_devices=d["max_devices"],
        gpu_link=Interconnect(**d["gpu_link"]),
        host_link=Interconnect(**d["host_link"]),
    )


def _cpu_from(d: dict[str, Any]):
    from repro.gpusim.spec import CpuSpec

    return CpuSpec(**d)


def cell_from_config(config: dict[str, Any]) -> "Cell":
    """Reconstruct the :class:`~repro.engine.cells.Cell` (with its exact
    context) that :func:`cell_config` described.

    The reconstruction is exact by design: platform/CPU specs rebuild
    from their flattened dicts, the effective seed is pinned as the
    cell's explicit seed, and re-fingerprinting the reconstructed cell
    yields the original fingerprint — which is how ``store resume``
    lands its records on the same rows.

    A cell may name no graph source of its own and still resume: when
    its *context* was derived for a dataset (``ctx_dataset``, e.g. a
    ``sweep -d NAME`` grid, which passes the loaded graph in-process),
    the caller reloads that dataset (:func:`shared_graph_dataset`
    names it) and passes it as the shared ``graph`` to
    :func:`~repro.engine.cells.run_cells` — the rebuilt cell keeps
    ``dataset=None`` so its config digest (and thus its fingerprint) is
    unchanged.

    Raises
    ------
    ValueError
        For cells that cannot be reconstructed at all: no registry
        dataset, no importable builder reference, and no context
        dataset to reload the shared graph from.
    """
    from repro.engine.cells import Cell
    from repro.engine.context import RunContext

    config = upgrade_config(config)
    build = None
    if config.get("builder"):
        try:
            build = _import_builder(config["builder"])
        except (ImportError, AttributeError) as exc:
            raise ValueError(
                f"cell builder {config['builder']!r} is not importable: "
                f"{exc}"
            ) from exc
    if config.get("dataset") is None and build is None \
            and config.get("ctx_dataset") is None:
        raise ValueError(
            "cell is not resumable: it names no registry dataset, no "
            "builder and no context dataset (its graph was passed "
            "in-process to run_cells)"
        )
    ctx = RunContext(
        platform=_platform_from(config["platform"]),
        cpu=_cpu_from(config["cpu"]),
        num_devices=config["num_devices"],
        num_batches=config["num_batches"],
        seed=config["seed"],
        dataset=config["ctx_dataset"],
    )
    return Cell(
        config["algorithm"],
        dataset=config["dataset"],
        quality=config["quality"],
        build=build,
        ctx=ctx,
        overrides=dict(config["overrides"] or {}),
        seed=config["seed"],
        label=config["label"],
        replicate=config.get("replicate"),
    )


def shared_graph_dataset(cell: "Cell") -> str | None:
    """The dataset to reload as the shared graph of a cell rebuilt by
    :func:`cell_from_config`: None when the cell names its own dataset
    or builder, else its context dataset (``ctx_dataset``)."""
    if cell.dataset is not None or cell.build is not None:
        return None
    return cell.ctx.dataset
