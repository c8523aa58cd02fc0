"""Discrete-cost multi-GPU simulator.

The paper runs on NVIDIA DGX boxes (8×A100 SXM4 and 16×V100 SXM3); this
environment has no GPUs, so LD-GPU executes here on *simulated* devices:

* the **arithmetic** of every kernel is performed bit-exactly with NumPy on
  the arrays a real device would hold, and
* the **time** of every kernel, transfer and collective is accounted by a
  first-order cost model (bytes / bandwidth, kernel-launch latency,
  max-warp-work imbalance, ring-allreduce steps).

Quality numbers are therefore exact; performance numbers reproduce the
paper's *shapes* (scaling curves, component breakdowns, interconnect and
generation gaps) rather than its absolute seconds.  DESIGN.md §2 records
this substitution.
"""

from repro.gpusim.spec import (
    DeviceSpec,
    PlatformSpec,
    A100,
    V100,
    DGX_A100,
    DGX_A100_PCIE,
    DGX_2,
    CPU_EPYC_7742_2S,
    CpuSpec,
)
from repro.gpusim.memory import DeviceOOMError, MemoryPool
from repro.gpusim.device import SimDevice
from repro.gpusim.timeline import Timeline, COMPONENTS
from repro.gpusim.stream import dual_buffer_schedule
from repro.gpusim.kernels import (
    pointing_kernel_cost,
    matching_kernel_cost,
    KernelProfile,
)
from repro.gpusim.occupancy import warp_work_distribution, sm_occupancy
from repro.gpusim.trace import Trace, TraceEvent

__all__ = [
    "DeviceSpec",
    "PlatformSpec",
    "CpuSpec",
    "A100",
    "V100",
    "DGX_A100",
    "DGX_A100_PCIE",
    "DGX_2",
    "CPU_EPYC_7742_2S",
    "DeviceOOMError",
    "MemoryPool",
    "SimDevice",
    "Timeline",
    "COMPONENTS",
    "dual_buffer_schedule",
    "pointing_kernel_cost",
    "matching_kernel_cost",
    "KernelProfile",
    "warp_work_distribution",
    "sm_occupancy",
    "Trace",
    "TraceEvent",
]
