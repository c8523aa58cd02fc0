"""Inter-device communication: topologies, collectives, transfers.

Models the two communication fabrics the paper evaluates (PCIe vs NVLink
SXM3/SXM4, Fig. 9–10) and the NCCL-style ring collectives LD-GPU issues
after each phase (Algorithm 2, lines 7 and 9), plus host↔device transfers
for batch loading.  Time is charged with the standard ring model
``2·(N−1)·(bytes/N)/bw + 2·(N−1)·α``; the combining allreduce also
reduces real per-device buffers.
"""

from repro.comm.topology import (
    Interconnect,
    PCIE3,
    PCIE4,
    NVLINK_SXM3,
    NVLINK_SXM4,
)
from repro.comm.collectives import allreduce_max
from repro.comm.transfer import h2d_time, d2h_time

__all__ = [
    "Interconnect",
    "PCIE3",
    "PCIE4",
    "NVLINK_SXM3",
    "NVLINK_SXM4",
    "allreduce_max",
    "h2d_time",
    "d2h_time",
]
