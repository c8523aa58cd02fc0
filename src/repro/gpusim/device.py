"""One simulated GPU: memory pool + launch/transfer counters.

A :class:`SimDevice` owns the per-device state LD-GPU allocates in §III-C:
the partition's CSR rows, the two |V|-sized global arrays (``pointers`` and
``mate``) and, when batching, the two batch buffers.  Nothing is
materialised: each buffer is a named allocation in the pool, which
enforces the capacity so over-subscribed configurations fail with
:class:`~repro.gpusim.memory.DeviceOOMError` exactly where a real run
would.
"""

from __future__ import annotations

from repro.gpusim.memory import MemoryPool
from repro.gpusim.spec import DeviceSpec
from repro.telemetry.spans import count, emit_event

__all__ = ["SimDevice"]


class SimDevice:
    """A single simulated device."""

    def __init__(self, device_id: int, spec: DeviceSpec):
        self.device_id = device_id
        self.spec = spec
        self.memory = MemoryPool(spec.memory_bytes, f"{spec.name}#{device_id}")
        self.kernels_launched = 0
        self.bytes_h2d = 0

    @property
    def label(self) -> str:
        """Stable metrics label for this device instance."""
        return f"{self.spec.name}#{self.device_id}"

    # -------------------------------------------------------------- #
    def reserve(self, name: str, nbytes: int) -> None:
        """Account ``nbytes`` of device memory under ``name``."""
        self.memory.alloc(name, nbytes)

    def free(self, name: str) -> None:
        """Release a named allocation."""
        self.memory.free_allocation(name)

    # -------------------------------------------------------------- #
    def record_kernel(self) -> None:
        """Bump the launch counter (and the telemetry counter when a
        registry is active)."""
        self.kernels_launched += 1
        emit_event("repro_kernel_launches_total",
                   "Simulated kernel launches per device.",
                   device=self.label)

    def record_h2d(self, nbytes: int) -> None:
        """Account host→device traffic."""
        self.bytes_h2d += int(nbytes)
        count("repro_device_bytes_total", int(nbytes),
              "Simulated device traffic in bytes.",
              device=self.label, direction="h2d")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimDevice({self.spec.name}#{self.device_id}, "
            f"mem {self.memory.used}/{self.memory.capacity} B, "
            f"{self.kernels_launched} kernels)"
        )
