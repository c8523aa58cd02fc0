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

Arithmetic is shared with LD-SEQ (:func:`compute_pointers` /
:func:`find_mutual_pairs`), so for every (devices, batches) configuration
the ``mate`` array is bit-identical to the sequential algorithm — the
executable form of the paper's Lemma III.1.

Work model: like the frontier-optimised LD-SEQ, only vertices whose pointer
died are re-scanned, and only batches intersecting that frontier are
re-loaded; the paper motivates this "logical control of task distribution"
in §III-B, and Fig. 8's decaying warp-edge work measures the same effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.comm.collectives import allreduce_max
from repro.comm.transfer import h2d_time
from repro.gpusim.device import SimDevice
from repro.gpusim.kernels import matching_kernel_cost, pointing_kernel_cost
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import DGX_A100, PlatformSpec
from repro.gpusim.stream import dual_buffer_schedule
from repro.gpusim.timeline import Timeline
from repro.matching.ld_seq import compute_pointers, find_mutual_pairs
from repro.matching.pointer_index import (
    HOST_SCAN_COUNTER,
    HOST_SCAN_HELP,
    MutualIndex,
    PointerIndex,
    resolve_pointing_engine,
)
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matched_vertex_weight, matching_weight
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
    """Per-device state: vertex range, local CSR rows, batch plan."""

    device: SimDevice
    start: int
    stop: int
    local_indptr: np.ndarray
    plan: BatchPlan
    pointers: np.ndarray
    mate: np.ndarray
    #: Cursors over this partition's slice of the graph's sorted rows
    #: (``engine="index"``; one per run, keyed by ``start`` as the row
    #: offset); ``None`` under the segment engine.
    index: PointerIndex | None = None

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
    pointing_engine: str = "index"


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
        # and mate arrays live on every device).
        pointers = dev.alloc_array("pointers", n, np.int64)
        mate = dev.alloc_array("mate", n, np.int64)
        dev.register_view("indptr", local_indptr)
        if plan.resident:
            dev.reserve("edges", edge_bytes)
        else:
            dev.reserve("batch_buffer_0", plan.max_batch_edges * bpa)
            dev.reserve("batch_buffer_1", plan.max_batch_edges * bpa)

        pointers.fill(UNMATCHED)
        mate.fill(UNMATCHED)
        parts.append(
            _DevicePartition(dev, start, stop, local_indptr, plan,
                             pointers, mate)
        )
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
    allreduce=None,
    engine: str | None = None,
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
    allreduce:
        Collective override: ``callable(buffers) -> seconds`` combining
        the per-device arrays in place (default: NCCL ring over
        ``platform.gpu_link``).  The multi-node extension injects a
        hierarchical NVLink+InfiniBand collective here.
    engine:
        Host-side engine for both phases: ``"index"`` gives each device
        partition a :class:`~repro.matching.pointer_index.PointerIndex`
        (per-run cursors over its slice of the graph's rows, which are
        sorted once per graph) plus a global
        :class:`~repro.matching.pointer_index.MutualIndex` (pointer-
        delta mutual checks), amortized O(m) host work; ``"segment"``
        re-scans via :func:`~repro.matching.ld_seq.compute_pointers`
        and an unrestricted
        :func:`~repro.matching.ld_seq.find_mutual_pairs` sweep (the
        reference oracle, mirroring the modeled kernels).  ``None``
        consults ``REPRO_POINTING_ENGINE`` (default ``"index"``).
        ``mate``, ``edges_scanned`` and ``sim_time`` are bit-identical
        across engines — the choice only moves actual host work
        (``stats["host_entries_scanned"]`` and its per-phase
        breakdown).

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
    engine = resolve_pointing_engine(engine)
    n = graph.num_vertices
    spec = platform.device
    parts = _setup_devices(graph, platform, num_devices, num_batches,
                           force_streaming, partition)
    nb = parts[0].plan.num_batches

    if allreduce is None:
        def allreduce(buffers):
            return allreduce_max(buffers, platform.gpu_link)

    eids = graph.canonical_edge_ids()
    if engine == "index":
        # Per device partition, cursors over its slice of the graph's
        # sorted rows (sorted once per graph, sliced here per run),
        # reused across iterations and batches (§III-B's monotone
        # availability makes cursors safe).
        for p in parts:
            p.index = PointerIndex(graph, p.start, p.stop)
    # The mutual check runs on the host over the *merged* pointers (one
    # check per iteration, not per device), so one delta index suffices.
    mutual = MutualIndex(n) if engine == "index" else None
    timeline = Timeline()
    # Component spans feed the timeline AND (when a metrics registry is
    # active, e.g. under the engine's MetricsSink) the telemetry
    # registry — from the same floats, so exports reconcile exactly.
    tel = SpanEmitter(timeline, algorithm="ld_gpu", device=spec.name)
    # Host-side merged views (what every device holds after allreduce).
    pointers_g = parts[0].pointers
    mate_g = parts[0].mate

    frontier = np.arange(n, dtype=np.int64)
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
        makespans = []
        computes = []
        iter_scanned = 0
        iter_host = 0
        occ_accum = 0.0
        occ_weight = 0.0
        w_tot = w_max = 0
        w_sumsq = 0.0
        w_warps = 0
        for p in parts:
            dev_frontier = frontier[
                (frontier >= p.start) & (frontier < p.stop)
            ]
            local = dev_frontier - p.start
            boff = p.plan.offsets
            which = np.searchsorted(boff, local, side="right") - 1
            load_times: list[float] = []
            comp_times: list[float] = []
            for b in range(nb):
                sel = dev_frontier[which == b]
                if len(sel) == 0:
                    continue  # batch untouched: neither loaded nor launched
                if p.plan.resident:
                    load_times.append(0.0)
                else:
                    nbytes = int(p.plan.edge_counts[b]) * \
                        spec.bytes_per_adjacency
                    # The paper excludes the host→device *partition*
                    # transfer from reported times; the first iteration's
                    # batch loads are exactly that initial placement, so
                    # they are tracked but not charged.
                    t_load = h2d_time(nbytes, platform.host_link)
                    if iterations == 0:
                        initial_transfer += t_load
                        t_load = 0.0
                    load_times.append(t_load)
                    p.device.record_h2d(nbytes)
                    observe(
                        "repro_batch_load_seconds",
                        t_load,
                        "Chargeable per-batch H2D load seconds "
                        "(iteration-0 placement loads excluded).",
                        algorithm="ld_gpu",
                        device=f"{spec.name}#{p.device.device_id}",
                        batch=b,
                    )
                prof = pointing_kernel_cost(
                    spec, degrees[sel], vertices_per_warp
                )
                comp_times.append(prof.seconds)
                p.device.record_kernel()
                occ_accum += prof.occupancy * prof.warp_stats.num_warps
                occ_weight += prof.warp_stats.num_warps
                ws = prof.warp_stats
                w_tot += ws.total_work
                w_max = max(w_max, ws.max_work)
                w_sumsq += (ws.std_work**2 + ws.mean_work**2) * ws.num_warps
                w_warps += ws.num_warps
                # Exact arithmetic for this batch's frontier slice.
                if p.index is not None:
                    iter_scanned += p.index.point(mate_g, p.pointers, sel)
                    iter_host += p.index.last_host_scanned
                else:
                    scanned = compute_pointers(
                        p.local_indptr,
                        graph.indices[graph.indptr[p.start]:],
                        graph.weights[graph.indptr[p.start]:],
                        eids[graph.indptr[p.start]:],
                        mate_g, p.pointers, sel, row_offset=p.start,
                    )
                    iter_scanned += scanned
                    iter_host += scanned
            pipe = dual_buffer_schedule(load_times, comp_times)
            makespans.append(pipe.makespan)
            computes.append(pipe.compute_time)
        t_point = max(makespans) if makespans else 0.0
        t_comp = max(computes) if computes else 0.0
        tel.emit("pointing", t_comp)
        tel.emit("batch_transfer", max(0.0, t_point - t_comp))
        host_pointing += iter_host

        # ---------------- allreduce(pointers) -------------------------- #
        # Each device contributes only its owned vertex range; everything
        # else is the reduction identity (-1).  This is what makes the MAX
        # reduction "unambiguous" in the paper's Lemma III.1 proof — a
        # stale merged value for a re-pointed remote vertex must not win.
        for p in parts:
            p.pointers[: p.start] = UNMATCHED
            p.pointers[p.stop :] = UNMATCHED
        t = allreduce([p.pointers for p in parts])
        tel.emit("allreduce_pointers", t)
        pointers_g = parts[0].pointers  # all equal after allreduce

        # ---------------- matching phase ------------------------------- #
        # Pairs are discovered once from the merged pointers — the index
        # engine probes only pointers that changed this round (every
        # change lands inside the frontier), the segment oracle sweeps
        # all vertices like the modeled kernel; each device's SetMates
        # writes only the endpoints it owns, and the mate allreduce below
        # reconstructs the global view, exactly as in Algorithm 2.
        if mutual is not None:
            lo, hi = mutual.find_pairs(pointers_g, frontier)
            match_host = mutual.last_host_scanned
        else:
            lo, hi = find_mutual_pairs(pointers_g, None)
            match_host = n
        host_matching += match_host
        count(HOST_SCAN_COUNTER, iter_host + match_host, HOST_SCAN_HELP,
              algorithm="ld_gpu", engine=engine, device=spec.name)
        match_times = []
        for p in parts:
            own_lo = lo[(lo >= p.start) & (lo < p.stop)]
            p.mate[own_lo] = pointers_g[own_lo]
            own_hi = hi[(hi >= p.start) & (hi < p.stop)]
            p.mate[own_hi] = pointers_g[own_hi]
            prof = matching_kernel_cost(spec, p.num_vertices)
            match_times.append(prof.seconds)
            p.device.record_kernel()
        tel.emit("matching", max(match_times) if match_times else 0.0)

        # ---------------- allreduce(mate) + sync ----------------------- #
        t = allreduce([p.mate for p in parts])
        tel.emit("allreduce_mate", t)
        mate_g = parts[0].mate
        sync_batches = max(0, nb - 2)
        tel.emit(
            "sync",
            (_SYNCS_PER_ITERATION + sync_batches)
            * spec.kernel_launch_us * 1e-6
            + platform.gpu_link.latency_s,
        )

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

        # Clear matched vertices' pointers on every device and advance the
        # frontier (identical to LD-SEQ's rule).
        for p in parts:
            p.pointers[lo] = UNMATCHED
            p.pointers[hi] = UNMATCHED
        pointers_g = parts[0].pointers
        live = np.nonzero((mate_g == UNMATCHED) & (pointers_g >= 0))[0]
        frontier = live[mate_g[pointers_g[live]] != UNMATCHED]

    if engine == "index":
        # Each vertex's matched edge, read under the cursor of the
        # partition that owns it (partitions tile [0, n) in order).
        weight = matched_vertex_weight(mate_g, np.concatenate(
            [p.index.matched_weights(mate_g) for p in parts]))
    else:
        weight = matching_weight(graph, mate_g)
    stats: dict = {
        "config": LdGpuRun(platform.name, num_devices, nb,
                           vertices_per_warp, engine),
        "pointing_engine": engine,
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
        mate=mate_g.copy(),
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
    accepts_pointing_engine=True,
))
