"""Execution contexts: platform/CPU selection, seeding, instrumentation.

A :class:`RunContext` carries everything about *how* to run that is not
the algorithm or the graph: which (possibly memory-scaled) platform and
host CPU model to simulate on, how many devices and batches, the RNG seed
for randomised algorithms, and the instrumentation sinks every run
reports to.  :meth:`RunContext.for_dataset` encapsulates the paper's
bandwidth-scaling protocol (previously re-derived by the CLI, the
experiments and the benchmarks independently).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sinks import InstrumentationSink
    from repro.gpusim.spec import CpuSpec, PlatformSpec
    from repro.graph.csr import CSRGraph

__all__ = ["RunContext"]


@dataclass(frozen=True)
class RunContext:
    """Immutable configuration for one or more algorithm runs.

    Attributes
    ----------
    platform:
        :class:`~repro.gpusim.spec.PlatformSpec` for simulator-backed
        GPU algorithms; ``None`` selects the default DGX-A100.
    cpu:
        :class:`~repro.gpusim.spec.CpuSpec` for CPU cost models;
        ``None`` selects the default dual-socket EPYC 7742.
    num_devices / num_batches:
        Device count and per-device batch count for multi-GPU
        algorithms (``num_batches=None`` = auto-fit).
    seed:
        Forwarded to randomised algorithms when set; ``None`` keeps each
        algorithm's own default.
    dataset:
        Name of the dataset this context was derived for (recorded in
        every :class:`~repro.engine.record.RunRecord`).
    sinks:
        :class:`~repro.engine.sinks.InstrumentationSink` instances
        notified around every :func:`~repro.engine.executor.execute`.
    """

    platform: "PlatformSpec | None" = None
    cpu: "CpuSpec | None" = None
    num_devices: int = 1
    num_batches: int | None = None
    seed: int | None = None
    dataset: str | None = None
    sinks: tuple["InstrumentationSink", ...] = field(default=())

    # -------------------------------------------------------------- #
    # construction helpers
    # -------------------------------------------------------------- #

    @classmethod
    def for_dataset(
        cls,
        name: str,
        platform: "PlatformSpec | None" = None,
        cpu: "CpuSpec | None" = None,
        graph: "CSRGraph | None" = None,
        num_devices: int = 1,
        num_batches: int | None = None,
        seed: int | None = None,
        sinks: tuple["InstrumentationSink", ...] = (),
    ) -> "RunContext":
        """Context with the platform/CPU *memory-scaled* for a registry
        dataset (see :func:`repro.harness.datasets.scaled_platform`).

        ``graph`` overrides the analog used to compute the scale factor
        — pass the quality instance to scale for it instead of the full
        analog.
        """
        from repro.gpusim.spec import CPU_EPYC_7742_2S, DGX_A100
        from repro.harness.datasets import scaled_cpu, scaled_platform

        base_plat = platform if platform is not None else DGX_A100
        base_cpu = cpu if cpu is not None else CPU_EPYC_7742_2S
        return cls(
            platform=scaled_platform(name, base_plat, graph),
            cpu=scaled_cpu(name, base_cpu, graph),
            num_devices=num_devices,
            num_batches=num_batches,
            seed=seed,
            dataset=name,
            sinks=tuple(sinks),
        )

    def with_config(self, **changes: Any) -> "RunContext":
        """A copy with some fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)

    # -------------------------------------------------------------- #
    # resolution (lazy defaults keep this module import-cycle free)
    # -------------------------------------------------------------- #

    def resolved_platform(self) -> "PlatformSpec":
        """The platform, defaulting to the unscaled DGX-A100."""
        if self.platform is not None:
            return self.platform
        from repro.gpusim.spec import DGX_A100

        return DGX_A100

    def resolved_cpu(self) -> "CpuSpec":
        """The CPU model, defaulting to the paper's SR-OMP host."""
        if self.cpu is not None:
            return self.cpu
        from repro.gpusim.spec import CPU_EPYC_7742_2S

        return CPU_EPYC_7742_2S
