"""The simulator's model card: every calibration constant in one place.

The performance model stands on a small set of measured/vendor constants;
this module collects them with their provenance so reviewers can audit —
and users can re-derive — each figure.  ``render_model_card()`` produces
the table EXPERIMENTS.md's methodology references, and the test suite
pins the constants so silent recalibration is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.topology import (
    NVLINK_SXM3,
    NVLINK_SXM4,
    PCIE3,
    PCIE4,
)
from repro.gpusim.spec import A100, CPU_EPYC_7742_2S, V100
from repro.harness.report import format_table

__all__ = ["CalibrationEntry", "calibration_entries", "render_model_card"]


@dataclass(frozen=True)
class CalibrationEntry:
    """One constant with its value, unit and provenance."""

    name: str
    value: float
    unit: str
    source: str


def calibration_entries() -> list[CalibrationEntry]:
    """Every constant the cost models use."""
    e = CalibrationEntry
    return [
        # --- devices ---------------------------------------------------
        e("A100 SMs", A100.sm_count, "count", "vendor spec"),
        e("A100 HBM bandwidth", A100.mem_bandwidth_gbs, "GB/s",
          "vendor spec (1555)"),
        e("A100 sustained efficiency", A100.mem_efficiency, "fraction",
          "graph kernels sustain near peak on Ampere"),
        e("A100 kernel launch latency", A100.kernel_launch_us, "µs",
          "typical CUDA 11 launch+sync"),
        e("V100 SMs", V100.sm_count, "count", "vendor spec"),
        e("V100 HBM bandwidth", V100.mem_bandwidth_gbs, "GB/s",
          "vendor spec (900)"),
        e("V100 sustained efficiency", V100.mem_efficiency, "fraction",
          "calibrated: Table III geo-mean 2.35x > raw 1.73x BW ratio"),
        e("V100 kernel launch latency", V100.kernel_launch_us, "µs",
          "CUDA 10 on DGX-2 (paper's stack)"),
        e("per-warp scan throughput (A100)", A100.warp_throughput_gbs,
          "GB/s", "single-warp streaming rate; straggler bound"),
        e("gather penalty", A100.gather_penalty, "x",
          "non-coalesced indirect access derate (SetMates)"),
        # --- fabrics ---------------------------------------------------
        e("NVLink SXM4 link bandwidth", NVLINK_SXM4.bandwidth_gbs,
          "GB/s", "vendor spec (600)"),
        e("NVLink SXM4 collective efficiency",
          NVLINK_SXM4.collective_efficiency, "fraction",
          "NCCL sustains ~48 GB/s bus bandwidth on DGX-A100"),
        e("NVLink SXM3 link bandwidth", NVLINK_SXM3.bandwidth_gbs,
          "GB/s", "vendor spec (300)"),
        e("NVLink SXM3 collective efficiency",
          NVLINK_SXM3.collective_efficiency, "fraction",
          "NCCL ~30 GB/s on DGX-2"),
        e("PCIe gen4 bandwidth", PCIE4.bandwidth_gbs, "GB/s",
          "effective x16 (16)"),
        e("PCIe gen3 bandwidth", PCIE3.bandwidth_gbs, "GB/s",
          "effective x16 (12)"),
        e("PCIe collective efficiency", PCIE4.collective_efficiency,
          "fraction", "NCCL ~13 GB/s over gen4; shared-switch fabric "
          "additionally divides by N/2"),
        e("NCCL step latency (NVLink)", NVLINK_SXM4.latency_us, "µs",
          "per ring step"),
        e("NCCL step latency (PCIe)", PCIE4.latency_us, "µs",
          "per ring step"),
        # --- host ------------------------------------------------------
        e("host threads (SR-OMP)", CPU_EPYC_7742_2S.threads, "count",
          "paper: 256-thread runs"),
        e("host DRAM bandwidth", CPU_EPYC_7742_2S.mem_bandwidth_gbs,
          "GB/s", "2 x EPYC 7742, 16 channels DDR4-3200"),
        e("host irregular efficiency",
          CPU_EPYC_7742_2S.irregular_efficiency, "fraction",
          "calibrated: SR-OMP streams Queen_4147 (~10 GB) in 0.33 s"),
        e("OpenMP barrier", CPU_EPYC_7742_2S.barrier_us, "µs",
          "256-thread barrier"),
    ]


def render_model_card() -> str:
    """The audit table of every calibration constant."""
    rows = [[c.name, c.value, c.unit, c.source]
            for c in calibration_entries()]
    return format_table(
        ["constant", "value", "unit", "provenance"],
        rows, floatfmt=".3g",
        title="Simulator model card (see DESIGN.md §2 and EXPERIMENTS.md)",
    )
