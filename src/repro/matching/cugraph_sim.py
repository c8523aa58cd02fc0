"""RAPIDS cuGraph multi-GPU approximate matching analog.

cuGraph's experimental MG matching follows Manne & Bisseling's locally
dominant algorithm (the paper, §IV-D) — arithmetically the same rounds as
LD-GPU — but its execution model differs in exactly the ways the paper
blames for the order-of-magnitude gap in Table V:

* **process-per-GPU over MPI** (RAFT comms) instead of NCCL over CUDA
  streams: every reduction is host-mediated (D2H → host exchange → H2D)
  with MPI message latencies;
* **full-graph load per process**: each rank ingests the entire graph and
  filters its partition, inflating memory and setup (we charge only the
  steady-state comm, as the paper excludes loading, but we *account* the
  memory so oversized graphs OOM like the real thing).

The matching produced is identical to LD-GPU's (same rounds, same total
order, the same sorted-row :class:`~repro.matching.pointer_index.
PointerIndex` on the host); only the cost model differs.
"""

from __future__ import annotations

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.comm.transfer import d2h_time, h2d_time
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.kernels import matching_kernel_cost, pointing_kernel_cost
from repro.gpusim.spec import DGX_A100, PlatformSpec
from repro.gpusim.timeline import Timeline
from repro.graph.csr import CSRGraph
from repro.matching.ld_seq import find_mutual_pairs
from repro.matching.pointer_index import PointerIndex
from repro.matching.types import UNMATCHED, MatchResult
from repro.partition.vertex import edge_balanced_partition

__all__ = ["cugraph_mg_sim"]

#: MPI point-to-point latency through the CUDA-aware OpenMPI stack, per
#: message (much higher than an NCCL collective step).
_MPI_LATENCY_S = 60e-6

#: Dataframe-style passes over the live edge set per iteration: cuGraph's
#: implementation materialises candidate/filter columns with generic thrust
#: primitives instead of a fused pointing kernel.
_PASSES_PER_ITERATION = 10

#: Host-driven orchestration latency per iteration (Python/RAFT dispatch,
#: kernel-graph setup, stream syncs across the process group).
_HOST_OVERHEAD_S = 4e-3


def cugraph_mg_sim(
    graph: CSRGraph,
    platform: PlatformSpec = DGX_A100,
    num_devices: int = 4,
    max_iterations: int | None = None,
) -> MatchResult:
    """Manne–Bisseling LD rounds under the cuGraph execution model."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    n = graph.num_vertices
    spec = platform.device

    # Process-per-GPU load model: every rank materialises the full graph.
    full = graph.memory_bytes() + 2 * n * 8
    if full > spec.memory_bytes:
        raise DeviceOOMError(f"cuGraph/{spec.name}", full, 0,
                             spec.memory_bytes)

    offsets = edge_balanced_partition(graph.indptr, num_devices)
    index = PointerIndex(graph)
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)
    degrees = graph.degrees
    timeline = Timeline()

    # Round 1 points every row (``None``), as in LD-SEQ.
    frontier = None
    iterations = 0
    while max_iterations is None or iterations < max_iterations:
        timeline.begin_iteration()
        index.point(mate, pointer, frontier)
        point_times = []
        unmatched = np.nonzero(mate == UNMATCHED)[0]
        for i in range(num_devices):
            start, stop = int(offsets[i]), int(offsets[i + 1])
            # Cost model: cuGraph re-scans every live vertex with several
            # generic passes per iteration — no frontier optimisation.
            live = unmatched[(unmatched >= start) & (unmatched < stop)]
            prof = pointing_kernel_cost(spec, degrees[live])
            point_times.append(prof.seconds * _PASSES_PER_ITERATION)
        timeline.add("pointing", max(point_times))

        # Host-staged allgather of the pointers: D2H, P×(P−1) MPI
        # messages of the partition slices, H2D — twice per iteration
        # (pointers, then mates).
        nbytes = n * 8
        stage = (
            d2h_time(nbytes // num_devices, platform.host_link)
            + h2d_time(nbytes, platform.host_link)
            + (num_devices - 1) * (_MPI_LATENCY_S
                                   + (nbytes / num_devices)
                                   / platform.host_link.bandwidth_bps)
        )
        timeline.add("allreduce_pointers", stage if num_devices > 1 else 0.0)

        lo, hi = find_mutual_pairs(pointer, frontier)
        match_times = []
        for i in range(num_devices):
            start, stop = int(offsets[i]), int(offsets[i + 1])
            prof = matching_kernel_cost(spec, stop - start)
            match_times.append(prof.seconds)
        timeline.add("matching", max(match_times))
        timeline.add("allreduce_mate", stage if num_devices > 1 else 0.0)
        timeline.add("sync", 4 * spec.kernel_launch_us * 1e-6
                     + _MPI_LATENCY_S + _HOST_OVERHEAD_S)

        iterations += 1
        timeline.end_iteration()
        if len(lo) == 0:
            break
        mate[lo] = hi
        mate[hi] = lo
        pointer[lo] = UNMATCHED
        pointer[hi] = UNMATCHED
        live = np.nonzero((mate == UNMATCHED) & (pointer >= 0))[0]
        frontier = live[mate[pointer[live]] != UNMATCHED]

    return MatchResult(
        mate=mate,
        weight=index.matched_weight(mate),
        algorithm="cugraph_mg",
        iterations=iterations,
        sim_time=timeline.total,
        timeline=timeline,
        stats={"num_devices": num_devices, "platform": platform.name},
    )


register(AlgorithmSpec(
    name="cugraph",
    fn=cugraph_mg_sim,
    summary="Manne-Bisseling LD over an MPI-style MG model (cuGraph)",
    needs_platform=True,
    needs_devices=True,
    simulator_backed=True,
    approx_ratio="1/2",
))
