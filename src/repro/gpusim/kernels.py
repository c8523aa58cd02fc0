"""Kernel cost models.

Two kernels exist in LD-GPU (Algorithm 3):

* ``SetPointers`` — warp-per-vertex-group neighbourhood scan with a warp
  shuffle reduction.  Streaming-bandwidth bound when the launch saturates
  the device, straggler bound when one warp's neighbourhood dwarfs the
  rest (heavy-tailed graphs), launch-latency bound when the frontier is
  tiny (the thousands-of-iterations regime).
* ``SetMates`` — per-thread mutual-pointer check over the vertex list; no
  neighbourhood scan, but the double indirection ``pointers[pointers[u]]``
  is non-coalesced, modeled with :attr:`DeviceSpec.gather_penalty`.

:func:`pointing_kernel_cost` and :func:`matching_kernel_cost` price one
launch and observe it in ``repro_kernel_seconds``.  LD-GPU prices a
round's launches with :func:`pointing_kernel_costs` and each device's
SetMates launch once per run with :func:`matching_kernel_profile`
(neither observes), then records every launch it makes with
:func:`observe_launch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.occupancy import (
    WarpWorkStats,
    sm_occupancy,
    warp_work_distribution,
    warp_work_distributions,
)
from repro.gpusim.spec import DeviceSpec
from repro.telemetry.spans import observe

__all__ = [
    "KernelProfile",
    "pointing_kernel_cost",
    "pointing_kernel_costs",
    "matching_kernel_cost",
    "matching_kernel_profile",
    "observe_launch",
    "VERTEX_HEADER_BYTES",
]

#: Per-vertex fixed traffic in the pointing kernel: indptr pair, mate
#: check, pointer write (4 × 8 B).
VERTEX_HEADER_BYTES = 32


@dataclass(frozen=True)
class KernelProfile:
    """Modeled outcome of one kernel launch."""

    seconds: float
    occupancy: float
    warp_stats: WarpWorkStats

    @property
    def edges_scanned(self) -> int:
        """Adjacency entries touched by this launch."""
        return self.warp_stats.total_work


def pointing_kernel_costs(
    spec: DeviceSpec,
    work_per_vertex: np.ndarray,
    cuts,
    vertices_per_warp: int = 8,
) -> list[KernelProfile]:
    """Cost of one ``SetPointers`` launch per slice
    ``work_per_vertex[cuts[i]:cuts[i + 1]]``, all in one pass.

    ``work_per_vertex`` holds the adjacency length of each scanned vertex
    (contiguous ids within a slice, as a batch is); LD-GPU passes one
    gather of its whole frontier and cuts it at the (device, batch)
    bounds.  Per slice the model takes the max of

    * the bandwidth bound  ``total_bytes / HBM_bw / occupancy``  (an
      under-filled device cannot saturate its HBM), and
    * the straggler bound  ``max_warp_bytes / warp_throughput``,

    plus the launch latency; an empty slice costs the launch alone.
    Nothing is observed: a caller records each launch it makes with
    :func:`observe_launch`.
    """
    launch = spec.kernel_launch_us * 1e-6
    bpa = spec.bytes_per_adjacency
    throughput = spec.warp_throughput_gbs * 1e9
    out = []
    for nv, stats in zip(
            np.diff(np.asarray(cuts)).tolist(),
            warp_work_distributions(work_per_vertex, cuts,
                                    vertices_per_warp)):
        if stats.num_warps == 0:
            out.append(KernelProfile(launch, 0.0, stats))
            continue
        total_bytes = stats.total_work * bpa + nv * VERTEX_HEADER_BYTES
        max_warp_bytes = (
            stats.max_work * bpa + vertices_per_warp * VERTEX_HEADER_BYTES
        )
        # Under-filled launches are already throttled by the straggler
        # bound (per-warp throughput); dividing the bandwidth bound by
        # occupancy as well would double-penalise small frontiers.
        bw_bound = total_bytes / spec.mem_bandwidth_bps
        straggler_bound = max_warp_bytes / throughput
        out.append(KernelProfile(launch + max(bw_bound, straggler_bound),
                                 sm_occupancy(spec, stats.num_warps),
                                 stats))
    return out


def pointing_kernel_cost(
    spec: DeviceSpec,
    work_per_vertex: np.ndarray,
    vertices_per_warp: int = 8,
) -> KernelProfile:
    """Cost of one ``SetPointers`` launch over the given frontier slice:
    the one-slice case of :func:`pointing_kernel_costs`, observed."""
    prof = pointing_kernel_costs(
        spec, work_per_vertex, (0, len(work_per_vertex)),
        vertices_per_warp)[0]
    observe_launch(spec, "pointing", prof)
    return prof


def matching_kernel_profile(spec: DeviceSpec,
                            num_vertices: int) -> KernelProfile:
    """Cost of one ``SetMates`` launch checking ``num_vertices`` vertices
    (not observed; see :func:`matching_kernel_cost`).

    Traffic per vertex: coalesced ``pointers[u]`` read (8 B), gathered
    ``pointers[pointers[u]]`` read (8 B × gather penalty), conditional
    ``mate`` write (8 B amortised).
    """
    launch = spec.kernel_launch_us * 1e-6
    if num_vertices == 0:
        return KernelProfile(launch, 0.0, warp_work_distribution(
            np.empty(0, dtype=np.int64), 1))
    threads_per_warp = spec.warp_size
    num_warps = -(-num_vertices // threads_per_warp)
    occ = sm_occupancy(spec, num_warps)
    bytes_per_vertex = 8 + 8 * spec.gather_penalty + 8
    total_bytes = num_vertices * bytes_per_vertex
    seconds = launch + total_bytes / spec.mem_bandwidth_bps
    stats = WarpWorkStats(
        num_warps=num_warps,
        total_work=num_vertices,
        max_work=threads_per_warp,
        mean_work=num_vertices / num_warps,
        std_work=0.0,
    )
    return KernelProfile(seconds, occ, stats)


def matching_kernel_cost(spec: DeviceSpec, num_vertices: int) -> KernelProfile:
    """Cost of one ``SetMates`` launch checking ``num_vertices`` vertices
    (:func:`matching_kernel_profile`, observed)."""
    prof = matching_kernel_profile(spec, num_vertices)
    observe_launch(spec, "matching", prof)
    return prof


def observe_launch(spec: DeviceSpec, kernel: str,
                   prof: KernelProfile) -> None:
    """Record one launch's modeled duration in the
    ``repro_kernel_seconds`` histogram; a launch over no vertices is
    not recorded."""
    if prof.warp_stats.num_warps:
        observe("repro_kernel_seconds", prof.seconds,
                "Modeled per-launch kernel durations.",
                device=spec.name, kernel=kernel)
