"""LD-GPU — Algorithms 2–3: multi-GPU batched locally dominant matching.

The paper's primary contribution, executed on the :mod:`repro.gpusim`
device simulator:

1. **Distribution** (§III-A): edge-balanced contiguous vertex partition;
   device *i* holds the CSR rows of its vertices (cut edges replicated)
   plus the two |V|-sized global arrays (``pointers``, ``mate``).
2. **Batching** (§III-B): when a partition's edges exceed device memory,
   its vertex range is split into edge-balanced batches streamed through
   two buffers on two CUDA streams (``dual_buffer_schedule``); batch
   buffers are re-filled every pointing phase, which is exactly the
   overhead that makes low-device-count runs on LARGE graphs slow and the
   resulting multi-GPU speedups superlinear (Fig. 4).
3. **Per iteration** (Algorithm 2): pointing kernels per batch →
   NCCL-style MAX allreduce of ``pointers`` → ``SetMates`` mutual check →
   MAX allreduce of ``mate`` → terminate when no edge was committed.

The vertex partition is disjoint, so a MAX allreduce over {-1, owner
value} is the owner's write (the paper's Lemma III.1 argument): the host
keeps one global ``pointers`` / ``mate`` pair and points the whole
frontier in one call per round, while every per-device cost is still
charged from that device's slice of the frontier.  Arithmetic is shared
with LD-SEQ, so for every (devices, batches) configuration the ``mate``
array is bit-identical to the sequential algorithm.

Work model: like the frontier-optimised LD-SEQ, only vertices whose pointer
died are re-scanned, and only batches intersecting that frontier are
re-loaded; the paper motivates this "logical control of task distribution"
in §III-B, and Fig. 8's decaying warp-edge work measures the same effect.

Host cost follows the same frontier.  The next frontier is filtered from
a shrinking array of pointer holders (:func:`~repro.matching.ld_seq.
next_frontier`, shared with LD-SEQ), and one
:func:`~repro.gpusim.kernels.pointing_kernel_costs` pass prices every
(device, batch) launch of a round from one gather of the frontier's
degrees.  The first round's frontier is ``None``, every row: it is
pointed and matched on whole arrays and priced from the degrees and the
batch bounds as they are.  Charges that no round changes (each device's
SetMates launch, both allreduces, the sync) are computed once per run;
every launch is still observed and counted on its own, in (device,
batch) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.comm.collectives import ring_allreduce_time
from repro.comm.transfer import h2d_time
from repro.gpusim.device import SimDevice
from repro.gpusim.kernels import (
    matching_kernel_profile,
    observe_launch,
    pointing_kernel_costs,
)
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_A100, PlatformSpec
from repro.gpusim.stream import dual_buffer_schedule
from repro.gpusim.timeline import Timeline
from repro.matching.ld_seq import next_frontier
from repro.matching.pointer_index import (
    HOST_SCAN_COUNTER,
    HOST_SCAN_HELP,
    MutualIndex,
    PointerIndex,
)
from repro.matching.types import UNMATCHED, MatchResult
from repro.partition.batch import BatchPlan, auto_batch_count, plan_batches
from repro.partition.vertex import (
    edge_balanced_partition,
    vertex_balanced_partition,
)
from repro.telemetry.spans import SpanEmitter, count, observe
from repro.graph.csr import CSRGraph

__all__ = ["ld_gpu", "LdGpuRun"]

#: Fixed per-iteration device synchronisation charge (two end-of-phase
#: ``cudaDeviceSynchronize`` calls), in units of kernel-launch latencies.
_SYNCS_PER_ITERATION = 2


@dataclass
class _DevicePartition:
    """Per-device state: vertex range and batch plan."""

    device: SimDevice
    start: int
    stop: int
    plan: BatchPlan

    @property
    def num_vertices(self) -> int:
        return self.stop - self.start


@dataclass
class LdGpuRun:
    """Configuration echo attached to a result's ``stats['config']``."""

    platform: str
    num_devices: int
    num_batches: int
    vertices_per_warp: int


def _setup_devices(
    graph: CSRGraph,
    platform: PlatformSpec,
    num_devices: int,
    num_batches: int | None,
    force_streaming: bool,
    partition: str,
) -> list[_DevicePartition]:
    """Distribute the graph and build every device's batch plan.

    Batches are *logical* (kernel-range decomposition over resident edge
    data) whenever the whole partition fits in device memory; edge data is
    only streamed through the two batch buffers when it does not —
    re-streaming a resident partition every iteration would charge phantom
    PCIe traffic.  ``force_streaming`` overrides this, reproducing the
    paper's Fig. 6/7 study that "deliberately introduc[es] nontrivial
    batch processing overheads" on graphs that would otherwise fit.

    Raises :class:`~repro.gpusim.memory.DeviceOOMError` when no batch count
    can fit a partition — the '-' entries of the paper's Table I.
    """
    n = graph.num_vertices
    spec = platform.device
    if partition == "edge":
        offsets = edge_balanced_partition(graph.indptr, num_devices)
    elif partition == "vertex":
        offsets = vertex_balanced_partition(n, num_devices)
    else:
        raise ValueError(
            f"unknown partition strategy {partition!r}; "
            "expected 'edge' or 'vertex'"
        )

    # The paper keeps #batches identical across devices; the auto policy
    # takes the max of the per-device minima.  The estimate assumes
    # balanced batches, but contiguity skew (an indivisible hub row) can
    # make the largest batch exceed the mean, so the count is verified
    # against the actual plans and escalated until the buffers fit.
    if num_batches is None:
        per_dev = []
        for i in range(num_devices):
            start, stop = int(offsets[i]), int(offsets[i + 1])
            edges = int(graph.indptr[stop] - graph.indptr[start])
            per_dev.append(
                auto_batch_count(edges, stop - start, n, spec)
            )
        num_batches = max(per_dev)
        if num_batches > 1:
            bpa = spec.bytes_per_adjacency
            while num_batches <= 4096:
                ok = True
                for i in range(num_devices):
                    start, stop = int(offsets[i]), int(offsets[i + 1])
                    local = graph.indptr[start:stop + 1] - \
                        graph.indptr[start]
                    plan = plan_batches(local, num_batches)
                    avail = spec.memory_bytes - 2 * n * 8 - local.nbytes
                    if 2 * plan.max_batch_edges * bpa > avail:
                        ok = False
                        break
                if ok:
                    break
                num_batches += 1
            else:
                raise DeviceOOMError(spec.name, 0, 0, spec.memory_bytes)

    parts: list[_DevicePartition] = []
    for i in range(num_devices):
        start, stop = int(offsets[i]), int(offsets[i + 1])
        dev = SimDevice(i, spec)
        local_indptr = graph.indptr[start : stop + 1] - graph.indptr[start]
        bpa = spec.bytes_per_adjacency
        fixed = 2 * n * 8 + local_indptr.nbytes
        edge_bytes = int(local_indptr[-1]) * bpa
        fits = fixed + edge_bytes <= spec.memory_bytes
        resident = fits and not (force_streaming and num_batches > 1)
        plan = plan_batches(local_indptr, num_batches, resident=resident)

        # Device-resident allocations (§III-C trade-off: global pointers
        # and mate arrays live on every device; the host holds one copy).
        dev.reserve("pointers", n * 8)
        dev.reserve("mate", n * 8)
        dev.reserve("indptr", local_indptr.nbytes)
        if plan.resident:
            dev.reserve("edges", edge_bytes)
        else:
            dev.reserve("batch_buffer_0", plan.max_batch_edges * bpa)
            dev.reserve("batch_buffer_1", plan.max_batch_edges * bpa)
        parts.append(_DevicePartition(dev, start, stop, plan))
    return parts


def ld_gpu(
    graph: CSRGraph,
    platform: PlatformSpec = DGX_A100,
    num_devices: int = 1,
    num_batches: int | None = None,
    vertices_per_warp: int = 8,
    max_iterations: int | None = None,
    collect_stats: bool = True,
    force_streaming: bool = False,
    partition: str = "edge",
) -> MatchResult:
    """Run LD-GPU on ``num_devices`` simulated GPUs of ``platform``.

    Parameters
    ----------
    num_batches:
        Batches per device; ``None`` selects the minimum count that fits
        device memory (1 when the partition is resident — the paper's
        default scenario).
    vertices_per_warp:
        Contiguous vertices assigned to each warp in the pointing kernel.
    collect_stats:
        Record per-iteration edge traffic, warp-work and occupancy series
        (Figs. 8 and 11).
    force_streaming:
        Stream batch edge data through the dual buffers every iteration
        even when the partition would fit resident — the paper's Fig. 6/7
        methodology for studying batch overheads on SMALL graphs.
    partition:
        ``"edge"`` (default, §III-A's edge-balanced contiguous split) or
        ``"vertex"`` (naive equal-#vertices ablation baseline).

    Returns
    -------
    MatchResult
        With ``sim_time`` (modeled seconds), a component
        :class:`~repro.gpusim.timeline.Timeline`, and diagnostics in
        ``stats``.
    """
    if num_devices < 1:
        raise ValueError("need at least one device")
    if num_devices > platform.max_devices:
        raise ValueError(
            f"{platform.name} has only {platform.max_devices} devices"
        )
    n = graph.num_vertices
    spec = platform.device
    parts = _setup_devices(graph, platform, num_devices, num_batches,
                           force_streaming, partition)
    nb = parts[0].plan.num_batches

    # One pointing index over every row: pointing reads only ``mate``,
    # which does not change while pointing, so one call serves every
    # (device, batch).  §III-B's monotone availability makes reused
    # cursors safe.
    pointing, mutual = PointerIndex(graph), MutualIndex(n)
    timeline = Timeline()
    # Component spans feed the timeline AND (when a metrics registry is
    # active, e.g. under the engine's MetricsSink) the telemetry
    # registry — from the same floats, so exports reconcile exactly.
    tel = SpanEmitter(timeline, algorithm="ld_gpu", device=spec.name)
    # The merged arrays every device holds after each allreduce.
    pointers = np.full(n, UNMATCHED, dtype=np.int64)
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    # Global first vertex of every (device, batch), then n: cutting the
    # ascending frontier here yields each batch's slice.
    bounds = np.concatenate(
        [p.start + p.plan.offsets[:-1] for p in parts] + [[n]])

    # Charges that no round changes: each batch's H2D load, each
    # device's SetMates launch, both allreduces and the sync.
    bpa = spec.bytes_per_adjacency
    batch_bytes = [[int(e) * bpa for e in p.plan.edge_counts.tolist()]
                   for p in parts]
    batch_loads = [[h2d_time(nbytes, platform.host_link) for nbytes in row]
                   for row in batch_bytes]
    setmates = [matching_kernel_profile(spec, p.num_vertices)
                for p in parts]
    t_setmates = max(prof.seconds for prof in setmates)
    # ``pointers`` and ``mate`` are both n int64: one ring cost each.
    t_allreduce = ring_allreduce_time(mate.nbytes, num_devices,
                                      platform.gpu_link)
    t_sync = ((_SYNCS_PER_ITERATION + max(0, nb - 2))
              * spec.kernel_launch_us * 1e-6
              + platform.gpu_link.latency_s)

    # Round 1 points every row (``None``), as in LD-SEQ.
    frontier = holders = None
    occupancy_series: list[float] = []
    edges_scanned_series: list[int] = []
    warp_mean_series: list[float] = []
    warp_std_series: list[float] = []
    new_matches_series: list[int] = []

    iterations = 0
    initial_transfer = 0.0
    host_pointing = 0
    host_matching = 0
    degrees = graph.degrees
    while max_iterations is None or iterations < max_iterations:
        timeline.begin_iteration()

        # ---------------- pointing phase (per device, batched) --------- #
        iter_scanned = pointing.point(mate, pointers, frontier)
        iter_host = pointing.last_host_scanned
        # Every (device, batch) launch is costed from one gather of the
        # frontier's degrees, cut at the batch bounds; round 1 prices
        # every row from the degrees and bounds themselves.
        if frontier is None:
            work, cuts = degrees, bounds
        else:
            work = degrees[frontier]
            cuts = np.searchsorted(frontier, bounds)
        launches = iter(pointing_kernel_costs(
            spec, work, cuts, vertices_per_warp))
        makespans = []
        computes = []
        occ_accum = 0.0
        occ_weight = 0.0
        w_tot = w_max = 0
        w_sumsq = 0.0
        w_warps = 0
        for p, loads, sizes in zip(parts, batch_loads, batch_bytes):
            load_times: list[float] = []
            comp_times: list[float] = []
            for b in range(nb):
                prof = next(launches)
                ws = prof.warp_stats
                if ws.num_warps == 0:
                    continue  # batch untouched: neither loaded nor launched
                if p.plan.resident:
                    load_times.append(0.0)
                else:
                    # The paper excludes the host→device *partition*
                    # transfer from reported times; the first iteration's
                    # batch loads are exactly that initial placement, so
                    # they are tracked but not charged.
                    t_load = loads[b]
                    if iterations == 0:
                        initial_transfer += t_load
                        t_load = 0.0
                    load_times.append(t_load)
                    p.device.record_h2d(sizes[b])
                    observe(
                        "repro_batch_load_seconds",
                        t_load,
                        "Chargeable per-batch H2D load seconds "
                        "(iteration-0 placement loads excluded).",
                        algorithm="ld_gpu",
                        device=f"{spec.name}#{p.device.device_id}",
                        batch=b,
                    )
                observe_launch(spec, "pointing", prof)
                comp_times.append(prof.seconds)
                p.device.record_kernel()
                occ_accum += prof.occupancy * ws.num_warps
                occ_weight += ws.num_warps
                w_tot += ws.total_work
                w_max = max(w_max, ws.max_work)
                w_sumsq += (ws.std_work**2 + ws.mean_work**2) * ws.num_warps
                w_warps += ws.num_warps
            pipe = dual_buffer_schedule(load_times, comp_times)
            makespans.append(pipe.makespan)
            computes.append(pipe.compute_time)
        t_point = max(makespans) if makespans else 0.0
        t_comp = max(computes) if computes else 0.0
        tel.emit("pointing", t_comp)
        tel.emit("batch_transfer", max(0.0, t_point - t_comp))
        host_pointing += iter_host

        # ---------------- allreduce(pointers) -------------------------- #
        # Each device contributes its owned range and -1 elsewhere, so
        # the MAX is the owner's write, already in the one array.
        tel.emit("allreduce_pointers", t_allreduce)

        # ---------------- matching phase ------------------------------- #
        # Pairs are discovered once from the merged pointers (every
        # pointer change lands inside the frontier).  Each device's
        # SetMates writes the endpoints it owns; together they write
        # every endpoint once.
        lo, hi = mutual.find_pairs(pointers, frontier)
        match_host = mutual.last_host_scanned
        host_matching += match_host
        count(HOST_SCAN_COUNTER, iter_host + match_host, HOST_SCAN_HELP,
              algorithm="ld_gpu", device=spec.name)
        mate[lo] = pointers[lo]
        mate[hi] = pointers[hi]
        for p, prof in zip(parts, setmates):
            observe_launch(spec, "matching", prof)
            p.device.record_kernel()
        tel.emit("matching", t_setmates)

        # ---------------- allreduce(mate) + sync ----------------------- #
        tel.emit("allreduce_mate", t_allreduce)
        tel.emit("sync", t_sync)

        if collect_stats:
            edges_scanned_series.append(iter_scanned)
            occupancy_series.append(
                occ_accum / occ_weight if occ_weight else 0.0
            )
            mean_w = w_tot / w_warps if w_warps else 0.0
            var_w = max(0.0, w_sumsq / w_warps - mean_w**2) if w_warps \
                else 0.0
            warp_mean_series.append(mean_w)
            warp_std_series.append(var_w**0.5)
            new_matches_series.append(len(lo))

        iterations += 1
        timeline.end_iteration()
        if len(lo) == 0:
            break

        # Clear matched vertices' pointers and advance the frontier
        # (LD-SEQ's rule, through the same helper).
        pointers[lo] = UNMATCHED
        pointers[hi] = UNMATCHED
        holders, frontier = next_frontier(holders, mate, pointers)

    weight = pointing.matched_weight(mate)
    stats: dict = {
        "config": LdGpuRun(platform.name, num_devices, nb,
                           vertices_per_warp),
        "host_entries_scanned": host_pointing + host_matching,
        "host_entries_scanned_pointing": host_pointing,
        "host_entries_scanned_matching": host_matching,
        "initial_transfer_s": initial_transfer,
        "device_peak_bytes": [p.device.memory.peak for p in parts],
        "partition_offsets": np.array(
            [p.start for p in parts] + [parts[-1].stop], dtype=np.int64
        ),
    }
    if collect_stats:
        stats.update(
            edges_scanned=np.asarray(edges_scanned_series, dtype=np.int64),
            occupancy=np.asarray(occupancy_series),
            warp_work_mean=np.asarray(warp_mean_series),
            warp_work_std=np.asarray(warp_std_series),
            new_matches=np.asarray(new_matches_series, dtype=np.int64),
        )
    return MatchResult(
        mate=mate,
        weight=weight,
        algorithm="ld_gpu",
        iterations=iterations,
        sim_time=timeline.total,
        timeline=timeline,
        stats=stats,
    )


register(AlgorithmSpec(
    name="ld_gpu",
    fn=ld_gpu,
    summary="Algorithms 2-3 — multi-GPU batched LD matching",
    needs_platform=True,
    needs_devices=True,
    needs_batches=True,
    simulator_backed=True,
    approx_ratio="1/2",
    record_stats=("occupancy",),
))
