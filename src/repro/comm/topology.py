"""Interconnect descriptions.

Bandwidths follow the vendor figures the paper cites: Foley & Danskin
report ~5× PCIe for first-generation NVLink; DGX-2's SXM3 fabric delivers
~300 GB/s per GPU and DGX-A100's SXM4 fabric ~600 GB/s, against ~16 GB/s
effective for PCIe gen4 (gen3 ~12 GB/s).  Latencies are per-hop collective
step latencies in the NCCL regime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "Interconnect",
    "PCIE3",
    "PCIE4",
    "NVLINK_SXM3",
    "NVLINK_SXM4",
]


@dataclass(frozen=True)
class Interconnect:
    """A point-to-point link class used uniformly between peers.

    Attributes
    ----------
    name:
        Human-readable label ("NVLink-SXM4", ...).
    bandwidth_gbs:
        Effective per-GPU bandwidth in GB/s for bulk point-to-point
        transfers (H2D copies, peer copies).
    latency_us:
        Per-message / per-collective-step latency in microseconds.
    collective_efficiency:
        Fraction of ``bandwidth_gbs`` that NCCL-style collectives sustain
        as bus bandwidth.  Measured NCCL numbers are far below link peak:
        ~48 GB/s on an SXM4 fabric (peak 600), ~13 GB/s over PCIe gen4 —
        this ratio (~3.7×), not the raw 37× link ratio, is what the
        paper's Fig. 9 average reflects.
    shared_fabric:
        True for tree-topology fabrics (PCIe through shared switches)
        whose per-GPU collective bandwidth degrades as more devices
        contend; NVSwitch fabrics provide full bisection and do not.
    """

    name: str
    bandwidth_gbs: float
    latency_us: float
    collective_efficiency: float = 1.0
    shared_fabric: bool = False

    @property
    def bandwidth_bps(self) -> float:
        """Bandwidth in bytes/second."""
        return self.bandwidth_gbs * 1e9

    @property
    def latency_s(self) -> float:
        """Latency in seconds."""
        return self.latency_us * 1e-6

    def collective_bandwidth_bps(self, num_devices: int = 2) -> float:
        """Sustained collective bus bandwidth in bytes/second."""
        bw = self.bandwidth_bps * self.collective_efficiency
        if self.shared_fabric and num_devices > 2:
            bw /= num_devices / 2.0
        return bw

    def scaled(self, bandwidth_factor: float = 1.0,
               latency_factor: float = 1.0) -> "Interconnect":
        """Derived link for what-if studies."""
        return replace(
            self,
            name=f"{self.name}×{bandwidth_factor:g}",
            bandwidth_gbs=self.bandwidth_gbs * bandwidth_factor,
            latency_us=self.latency_us * latency_factor,
        )


#: PCIe gen3 x16 — effective host/device and peer bandwidth on DGX-2 hosts.
PCIE3 = Interconnect("PCIe-gen3", 12.0, 25.0,
                     collective_efficiency=0.8, shared_fabric=True)

#: PCIe gen4 x16 — effective bandwidth on DGX-A100 hosts.
PCIE4 = Interconnect("PCIe-gen4", 16.0, 25.0,
                     collective_efficiency=0.8, shared_fabric=True)

#: NVLink on DGX-2 (V100, SXM3): 300 GB/s per-GPU peak; NCCL sustains
#: ~30 GB/s of collective bus bandwidth through the SXM3 NVSwitch.
NVLINK_SXM3 = Interconnect("NVLink-SXM3", 300.0, 12.0,
                           collective_efficiency=0.10)

#: NVLink on DGX-A100 (A100, SXM4): 600 GB/s per-GPU peak; NCCL sustains
#: ~48 GB/s of collective bus bandwidth.
NVLINK_SXM4 = Interconnect("NVLink-SXM4", 600.0, 10.0,
                           collective_efficiency=0.08)
