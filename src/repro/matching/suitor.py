"""Suitor matching — the paper's SR-OMP and SR-GPU baselines.

The Suitor algorithm (Manne & Halappanavar, IPDPS'14) improves on the
pointer algorithm by *proposing*: a vertex u bids for its heaviest
neighbour v whose current best standing proposal is lighter than w(u, v);
an accepted bid displaces the previous suitor, which re-bids.  Because a
bid is only ever displaced by a heavier one, the candidate edge set shrinks
monotonically — "the Suitor algorithm is able to reduce the number of
candidate edges for matching" (§IV-D) — and for a consistent total order it
produces exactly the greedy/locally-dominant matching.

Three variants:

* :func:`suitor_seq` — the sequential displacement algorithm (reference),
  walking cursors over the graph's once-sorted rows.
* :func:`suitor_omp_sim` — round-synchronous vectorised Suitor with a
  multicore CPU cost model: the paper's **SR-OMP** (256 threads).
* :func:`suitor_gpu_sim` — the same rounds on one simulated GPU with
  SR-GPU's two signatures: one-vertex-per-warp load redistribution (great
  on regular graphs, useless on skewed ones — the paper's Table IV
  discussion) and a 32-bit graph representation, which both halves its
  bandwidth cost and makes it refuse LARGE graphs (Table I's '-').
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.gpusim.kernels import pointing_kernel_cost
from repro.gpusim.memory import DeviceOOMError
from repro.gpusim.spec import A100, CPU_EPYC_7742_2S, CpuSpec, DeviceSpec
from repro.gpusim.timeline import Timeline
from repro.graph.csr import CSRGraph
from repro.graph.segments import gather_rows, segment_argmax_lex
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matched_vertex_weight, matching_weight

__all__ = ["suitor_seq", "suitor_omp_sim", "suitor_gpu_sim"]

_NEG_INF = -np.inf


def suitor_seq(graph: CSRGraph) -> MatchResult:
    """Sequential Suitor with the shared ``(w, eid)`` total order.

    Each vertex walks a monotone cursor down its row of the graph's
    sorted layout (:meth:`~repro.graph.csr.CSRGraph.sorted_row_order`):
    the first neighbour whose standing proposal its edge beats is its
    best eligible one.  An entry the cursor passes can never become
    eligible again — a standing proposal's key only rises — so each
    entry is passed at most once and a displaced vertex resumes where
    it left off: O(m) scalar steps in all, on top of the graph's one
    sort.
    """
    n = graph.num_vertices
    # Scalar access through memoryviews: Python numbers without the
    # per-element cost of NumPy scalars or a list copy of the 2m arrays.
    order = memoryview(graph.sorted_row_order())
    indices = memoryview(graph.indices)
    weights = memoryview(graph.weights)
    row_end = memoryview(graph.indptr)[1:]
    cursor = memoryview(graph.indptr[:-1].copy())
    suitor = np.full(n, UNMATCHED, dtype=np.int64)
    ws_w = np.full(n, _NEG_INF)  # weight of the standing proposal
    ws_e = np.full(n, -1, dtype=np.int64)  # its tie-break key
    s_v, s_w, s_e = memoryview(suitor), memoryview(ws_w), memoryview(ws_e)

    for start in range(n):
        u = start
        while u != UNMATCHED:
            p, stop = cursor[u], row_end[u]
            while p < stop:
                k = order[p]
                v = indices[k]
                w = weights[k]
                # First entry beating v's standing proposal = u's best
                # (the canonical eid breaks weight ties).
                standing = s_w[v]
                if w > standing or w == standing and (
                        u * n + v if u < v else v * n + u) > s_e[v]:
                    break
                p += 1
            if p == stop:
                cursor[u] = p
                break
            # Once displaced from v, u can never beat v's key again.
            cursor[u] = p + 1
            e = u * n + v if u < v else v * n + u
            displaced = s_v[v]
            s_v[v], s_w[v], s_e[v] = u, w, e
            u = displaced

    mate = _suitor_to_mate(suitor)
    # ``ws_w[mate[u]]`` is the weight u proposed to its mate, read from
    # u's own row: the entry ``matching_weight`` would sum for u.
    return MatchResult(
        mate=mate,
        weight=matched_vertex_weight(mate, ws_w[mate]),
        algorithm="suitor_seq",
        iterations=0,
    )


def _suitor_to_mate(suitor: np.ndarray) -> np.ndarray:
    """Mutual suitors form the matching."""
    n = len(suitor)
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    has = np.nonzero(suitor != UNMATCHED)[0]
    mutual = has[suitor[suitor[has]] == has]
    mate[mutual] = suitor[mutual]
    return mate


def _suitor_rounds(
    graph: CSRGraph,
) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Round-synchronous Suitor.

    Every active vertex bids in parallel; per target the best bid wins,
    displacing the previous suitor; losers and displaced vertices re-enter
    the active set.  Returns the final mate array, the per-round active
    frontiers (for the cost models), and the round count.
    """
    n = graph.num_vertices
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    eids = graph.canonical_edge_ids()
    suitor = np.full(n, UNMATCHED, dtype=np.int64)
    ws_w = np.full(n, _NEG_INF)
    ws_e = np.full(n, -1, dtype=np.int64)

    active = np.arange(n, dtype=np.int64)
    frontiers: list[np.ndarray] = []
    rounds = 0
    while len(active):
        frontiers.append(active)
        rounds += 1
        sub_indptr, pos = gather_rows(indptr, active)
        nbrs = indices[pos]
        w = weights[pos]
        e = eids[pos]
        beats = (w > ws_w[nbrs]) | ((w == ws_w[nbrs]) & (e > ws_e[nbrs]))
        primary = np.where(beats, w, _NEG_INF)
        win = segment_argmax_lex(primary, e, sub_indptr)
        has = win >= 0
        proposers = active[has]
        targets = nbrs[win[has]]
        pw = w[win[has]]
        pe = e[win[has]]

        # Resolve per-target conflicts: best (w, eid) bid wins.
        order = np.lexsort((pe, pw, targets))
        targets_s = targets[order]
        last = np.ones(len(targets_s), dtype=bool)
        last[:-1] = targets_s[1:] != targets_s[:-1]
        winners_idx = order[last]
        tgt = targets[winners_idx]
        src = proposers[winners_idx]

        displaced = suitor[tgt]
        suitor[tgt] = src
        ws_w[tgt] = pw[winners_idx]
        ws_e[tgt] = pe[winners_idx]

        lost = proposers[~np.isin(np.arange(len(proposers)), winners_idx)]
        redo = displaced[displaced != UNMATCHED]
        active = np.unique(np.concatenate([lost, redo]))

    return _suitor_to_mate(suitor), frontiers, rounds


def suitor_omp_sim(
    graph: CSRGraph, cpu: CpuSpec = CPU_EPYC_7742_2S
) -> MatchResult:
    """SR-OMP: round-synchronous Suitor under a multicore cost model.

    Per round, the active vertices' adjacency is streamed once at the
    host's effective irregular bandwidth across ``cpu.threads`` threads,
    plus one OpenMP barrier.
    """
    mate, frontiers, rounds = _suitor_rounds(graph)
    degrees = graph.degrees
    t = 0.0
    bpa = 8 + 8  # SR-OMP uses the 64-bit CSR the paper feeds it
    for f in frontiers:
        work = int(degrees[f].sum())
        nbytes = work * bpa + len(f) * 32
        stream = nbytes / cpu.effective_bandwidth_bps
        # Straggler term: the heaviest vertex is processed by one thread.
        straggler = int(degrees[f].max()) * bpa / (
            cpu.effective_bandwidth_bps / cpu.threads
        )
        t += max(stream, straggler) + cpu.barrier_us * 1e-6
    return MatchResult(
        mate=mate,
        weight=matching_weight(graph, mate),
        algorithm="suitor_omp",
        iterations=rounds,
        sim_time=t,
        stats={"cpu": cpu.name, "rounds": rounds},
    )


def suitor_gpu_sim(
    graph: CSRGraph,
    spec: DeviceSpec = A100,
    vertices_per_warp: int = 1,
    thread_serial_factor: float = 10.0,
) -> MatchResult:
    """SR-GPU: round-synchronous Suitor on one simulated device.

    Uses a 32-bit graph representation (index_bytes=4, weight_bytes=4) and
    a *thread-per-vertex* kernel with vertices-per-warp redistribution:
    excellent balance on sparse/regular graphs, but a single thread scans a
    vertex's whole adjacency serially — ``thread_serial_factor`` derates
    the per-worker throughput accordingly, which is why LD-GPU's
    warp-cooperative scan catches up on the very dense inputs
    (mycielskian18, HV15R, mouse_gene in the paper's Table IV).

    Raises :class:`DeviceOOMError` when the graph plus the four |V|-sized
    state arrays exceed device memory — reproducing the paper's LARGE-graph
    failures.  A 1.15× working-set factor covers the kernel's temporaries.
    """
    spec32 = replace(
        spec.with_representation(4, 4),
        warp_throughput_gbs=spec.warp_throughput_gbs / thread_serial_factor,
    )
    need = int(1.15 * (graph.memory_bytes(index_bytes=4, weight_bytes=4)
                       + 4 * graph.num_vertices * 8))
    if need > spec32.memory_bytes:
        raise DeviceOOMError(f"SR-GPU/{spec.name}", need, 0,
                             spec32.memory_bytes)

    mate, frontiers, rounds = _suitor_rounds(graph)
    degrees = graph.degrees
    timeline = Timeline()
    for f in frontiers:
        prof = pointing_kernel_cost(spec32, degrees[f], vertices_per_warp)
        timeline.add("pointing", prof.seconds)
        timeline.add("sync", spec32.kernel_launch_us * 1e-6)
    return MatchResult(
        mate=mate,
        weight=matching_weight(graph, mate),
        algorithm="suitor_gpu",
        iterations=rounds,
        sim_time=timeline.total,
        timeline=timeline,
        stats={"device": spec.name, "rounds": rounds,
               "representation_bytes": need},
    )


register(AlgorithmSpec(
    name="suitor_seq",
    fn=suitor_seq,
    summary="sequential Suitor (Manne & Halappanavar)",
    approx_ratio="1/2",
))
register(AlgorithmSpec(
    name="sr_omp",
    fn=suitor_omp_sim,
    summary="round-synchronous Suitor, multicore cost model (SR-OMP)",
    needs_cpu=True,
    simulator_backed=True,
    approx_ratio="1/2",
))
register(AlgorithmSpec(
    name="sr_gpu",
    fn=suitor_gpu_sim,
    summary="single-device 32-bit Suitor, vertex-per-warp (SR-GPU)",
    needs_device_spec=True,
    simulator_backed=True,
    approx_ratio="1/2",
))
