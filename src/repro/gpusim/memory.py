"""Device global-memory accounting.

The paper motivates batching with out-of-memory failures ("even the
subgraph representations do not fit into GPU memory", §III-B) and Table I's
'-' entries are SR-GPU OOMs.  The allocator reproduces both: named
allocations against a capacity, with peak tracking for reports.
"""

from __future__ import annotations

__all__ = ["DeviceOOMError", "MemoryPool"]


class DeviceOOMError(MemoryError):
    """Raised when an allocation exceeds the device's remaining memory."""

    def __init__(self, device: str, request: int, used: int, capacity: int):
        self.device = device
        self.request = request
        self.used = used
        self.capacity = capacity
        super().__init__(
            f"{device}: out of memory allocating {request} B "
            f"({used} B of {capacity} B already in use)"
        )

    def __reduce__(self):
        # args holds the formatted message, not the constructor
        # signature — restore from the fields so the exception survives
        # the worker→parent pickle hop of parallel sweeps.
        return (DeviceOOMError,
                (self.device, self.request, self.used, self.capacity))


class MemoryPool:
    """Capacity-checked allocator for one simulated device."""

    def __init__(self, capacity_bytes: int, device_name: str = "gpu"):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity_bytes)
        self.device_name = device_name
        self._allocations: dict[str, int] = {}
        self.peak = 0

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return sum(self._allocations.values())

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self.used

    def alloc(self, name: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``name``; raises on OOM or reuse."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists")
        if self.used + nbytes > self.capacity:
            raise DeviceOOMError(self.device_name, nbytes, self.used,
                                 self.capacity)
        self._allocations[name] = int(nbytes)
        self.peak = max(self.peak, self.used)

    def free_allocation(self, name: str) -> None:
        """Release the allocation registered under ``name``."""
        if name not in self._allocations:
            raise KeyError(f"no allocation named {name!r}")
        del self._allocations[name]

    def allocations(self) -> dict[str, int]:
        """Snapshot of live allocations (name → bytes)."""
        return dict(self._allocations)

    def __contains__(self, name: str) -> bool:
        return name in self._allocations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryPool({self.device_name}: {self.used}/{self.capacity} B "
            f"in {len(self._allocations)} allocations, peak {self.peak} B)"
        )
