"""Algorithm descriptors and the global registry.

Every matching algorithm registers an :class:`AlgorithmSpec` next to its
implementation (at the bottom of its module in ``repro.matching``).  The
spec declares what the algorithm needs from a
:class:`~repro.engine.context.RunContext` — a platform, a device count, a
CPU model, a seed — and :meth:`AlgorithmSpec.bind` turns that declaration
into the correct keyword arguments, replacing the per-algorithm if-chains
that every entry point used to carry.

This module imports nothing from the rest of ``repro`` at module level;
the registry is populated lazily by importing :mod:`repro.matching` on
first query, which keeps algorithm modules free to import it in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict

from repro.engine.errors import UnknownAlgorithmError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import RunContext
    from repro.graph.csr import CSRGraph
    from repro.matching.types import MatchResult

__all__ = [
    "AlgorithmSpec",
    "register",
    "get_spec",
    "algorithm_names",
    "algorithm_specs",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: callable + declared parameter needs +
    capability tags.

    Attributes
    ----------
    name:
        Registry key (``"ld_gpu"``, ``"sr_omp"``, ...).
    fn:
        ``callable(graph, **kwargs) -> MatchResult``.
    summary:
        One-line description for ``repro-matching list algorithms``.
    needs_platform / needs_devices / needs_batches / needs_cpu /
    needs_device_spec:
        Which context-owned parameters the callable accepts
        (``platform=`` / ``num_devices=`` / ``num_batches=`` / ``cpu=`` /
        ``spec=`` respectively).
    accepts_seed:
        The callable is randomised and takes ``seed=``; a context seed is
        forwarded when set.
    simulator_backed:
        Runs under a cost model and reports ``sim_time`` (and usually a
        component :class:`~repro.gpusim.timeline.Timeline`).
    exact:
        Computes the true maximum weight matching.
    approx_ratio:
        Worst-case approximation guarantee as a display string
        (``"1/2"``, ``"3/8"``); ``None`` for exact solvers.
    parallel_safe:
        The callable is a pure function of ``(graph, kwargs)`` — no
        process-global mutable state — so
        :func:`~repro.engine.cells.run_cells` may dispatch it to worker
        processes.  Mark ``False`` for algorithms that mutate shared
        state (e.g. incremental matchers wrapping a live object).
    record_stats:
        Names of ``result.stats`` entries the executor copies into
        ``RunRecord.extra`` (JSON-coerced).  This is how an algorithm's
        *deterministic output payload* survives the run store — a
        store-served record has ``result=None``, so anything a
        downstream consumer needs (e.g. a shard's coreset edge list)
        must be declared here.  Keys absent from ``stats`` are skipped.
    tags:
        Extra free-form capability tags.
    """

    name: str
    fn: Callable[..., "MatchResult"] = field(repr=False)
    summary: str = ""
    needs_platform: bool = False
    needs_devices: bool = False
    needs_batches: bool = False
    needs_cpu: bool = False
    needs_device_spec: bool = False
    accepts_seed: bool = False
    simulator_backed: bool = False
    exact: bool = False
    approx_ratio: str | None = None
    parallel_safe: bool = True
    record_stats: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()

    @property
    def capability_tags(self) -> tuple[str, ...]:
        """Canonical tag list (what ``list algorithms`` prints)."""
        out: list[str] = []
        if self.simulator_backed:
            out.append("simulator_backed")
        if self.exact:
            out.append("exact")
        if self.approx_ratio is not None:
            out.append(f"approx_ratio={self.approx_ratio}")
        out.append("parallel-safe" if self.parallel_safe
                   else "serial-only")
        out.extend(self.tags)
        return tuple(out)

    def bind(self, graph: "CSRGraph", ctx: "RunContext") -> dict[str, Any]:
        """Build the keyword arguments for ``fn(graph, **kwargs)`` from
        the declared needs and the context's configuration."""
        kwargs: dict[str, Any] = {}
        if self.needs_platform:
            kwargs["platform"] = ctx.resolved_platform()
        if self.needs_device_spec:
            kwargs["spec"] = ctx.resolved_platform().device
        if self.needs_devices:
            kwargs["num_devices"] = ctx.num_devices
        if self.needs_batches:
            kwargs["num_batches"] = ctx.num_batches
        if self.needs_cpu:
            kwargs["cpu"] = ctx.resolved_cpu()
        if self.accepts_seed and ctx.seed is not None:
            kwargs["seed"] = ctx.seed
        return kwargs


_REGISTRY: Dict[str, AlgorithmSpec] = {}
_POPULATED = False


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add ``spec`` to the global registry (idempotent per name+fn)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.fn is not spec.fn:
        raise ValueError(f"algorithm {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_populated() -> None:
    """Import the algorithm modules once so their specs register."""
    global _POPULATED
    if not _POPULATED:
        import repro.matching  # noqa: F401  (registration side effect)

        _POPULATED = True


def get_spec(name: str) -> AlgorithmSpec:
    """Look up one spec; raises :class:`UnknownAlgorithmError` (a
    ``KeyError``) for unregistered names."""
    _ensure_populated()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAlgorithmError(name, list(_REGISTRY)) from None


def algorithm_names() -> list[str]:
    """Sorted names of every registered algorithm."""
    _ensure_populated()
    return sorted(_REGISTRY)


def algorithm_specs() -> list[AlgorithmSpec]:
    """Every registered spec, sorted by name."""
    _ensure_populated()
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]
