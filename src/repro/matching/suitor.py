"""Suitor matching — the paper's SR-OMP and SR-GPU baselines.

The Suitor algorithm (Manne & Halappanavar, IPDPS'14) improves on the
pointer algorithm by *proposing*: a vertex u bids for its heaviest
neighbour v whose current best standing proposal is lighter than w(u, v);
an accepted bid displaces the previous suitor, which re-bids.  Because a
bid is only ever displaced by a heavier one, the candidate edge set shrinks
monotonically — "the Suitor algorithm is able to reduce the number of
candidate edges for matching" (§IV-D) — and for a consistent total order it
produces exactly the greedy/locally-dominant matching.

One engine, :func:`_suitor_rounds` — round-synchronous vectorised
Suitor walking cursors over the graph's once-sorted rows — serves three
variants:

* :func:`suitor_seq` — Suitor's matching alone.  Under the total order
  every bid order gives the same matching, so the rounds stand in for
  the sequential displacement loop (kept as a test oracle).
* :func:`suitor_omp_sim` — the rounds with a multicore CPU cost model:
  the paper's **SR-OMP** (256 threads).
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
from repro.matching.pointer_index import advance_cursors
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import _vertex_ids

__all__ = ["suitor_seq", "suitor_omp_sim", "suitor_gpu_sim"]

_NEG_INF = -np.inf


def suitor_seq(graph: CSRGraph) -> MatchResult:
    """Suitor with the shared ``(w, eid)`` total order.

    Under a total order Suitor has one outcome, the locally dominant
    matching, whatever order the bids are made in (Manne &
    Halappanavar), so the sequential displacement loop and the rounds
    of :func:`_suitor_rounds` give the same matching; this runs the
    rounds.  The rounds are host work, not a modelled machine, so
    ``iterations`` stays 0 and no stats are recorded: SR-OMP and
    SR-GPU report the round count with their cost models.
    """
    mate, weight, _, _ = _suitor_rounds(graph)
    return MatchResult(mate=mate, weight=weight, algorithm="suitor_seq",
                       iterations=0)


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
) -> tuple[np.ndarray, float, list[np.ndarray], int]:
    """Round-synchronous Suitor, the one Suitor engine.

    Every active vertex bids in parallel; per target the best bid wins,
    displacing the previous suitor; losers and displaced vertices
    re-enter the active set.  A vertex's best eligible bid is the first
    entry of its row of the graph's sorted layout
    (:meth:`~repro.graph.csr.CSRGraph.sorted_row_order`, with its
    neighbour ids :meth:`~repro.graph.csr.CSRGraph.sorted_neighbors`)
    that beats the target's standing proposal, found by a monotone
    cursor walk: standing keys only rise, so an entry passed once, or
    bid once (it won and was later displaced, or lost to a heavier
    bid), never beats its target again.  Host work is amortised O(m) on
    top of the graph's one sort.  The tie key ``min(u, v) * n +
    max(u, v)`` is computed from the proposer and the target where a
    weight tie needs it, so no run builds the canonical edge ids.
    Returns the final mate array, its weight, the per-round active
    frontiers (for the cost models), and the round count.
    """
    n = graph.num_vertices
    indptr = graph.indptr
    order, nbrs = graph.sorted_row_order(), graph.sorted_neighbors()
    weights = graph.weights
    cursor = indptr[:-1].copy()
    row_end = indptr[1:]
    suitor = np.full(n, UNMATCHED, dtype=np.int64)
    ws_w = np.full(n, _NEG_INF)
    ws_e = np.full(n, -1, dtype=np.int64)

    def eid(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.minimum(u, v) * n + np.maximum(u, v)

    # The layout's int32 positions and ids are widened before they index:
    # NumPy indexes faster with intp than it casts an int32 index.
    def entry(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (nbrs[slots].astype(np.intp),
                weights[order[slots].astype(np.intp)])

    def beaten(slots: np.ndarray) -> np.ndarray:
        # The entry no longer beats its target's standing proposal.
        v, w = entry(slots)
        standing = ws_w[v]
        dead = w < standing
        tie = np.flatnonzero(w == standing)
        if len(tie):
            owner = np.searchsorted(indptr, slots[tie], "right") - 1
            dead[tie] = eid(owner, v[tie]) <= ws_e[v[tie]]
        return dead

    mark = np.zeros(n, dtype=bool)
    active = np.arange(n, dtype=np.int64)
    frontiers: list[np.ndarray] = []
    rounds = 0
    while len(active):
        frontiers.append(active)
        rounds += 1
        if rounds == 1:
            # No proposal stands yet, so no entry is beaten: every
            # non-empty row's head bids, on whole arrays.
            live = cursor < row_end
            proposers = np.flatnonzero(live)
            slots = cursor[proposers]
            cursor += live
        else:
            cur = cursor[active]
            end = row_end[active]
            advance_cursors(cur, end, beaten)
            live = cur < end
            # Whether it wins or loses, a bid's entry is spent.
            cursor[active] = cur + live
            has = np.flatnonzero(live)
            proposers, slots = active[has], cur[has]
        targets, pw = entry(slots)

        # Every bid beats its target's standing proposal, so the best
        # (w, eid) bid per target becomes the standing one: the heaviest
        # weight first, then the largest eid among the bids at it.
        np.maximum.at(ws_w, targets, pw)
        top = np.flatnonzero(pw == ws_w[targets])
        top_e = eid(proposers[top], targets[top])
        ws_e[targets] = -1
        np.maximum.at(ws_e, targets[top], top_e)
        won = top[top_e == ws_e[targets[top]]]
        tgt, src = targets[won], proposers[won]
        displaced = suitor[tgt]
        suitor[tgt] = src

        # Next: the losers and the displaced.  A displaced vertex had a
        # standing bid, so it did not bid this round and no winner's
        # unmark can drop it.
        mark[proposers] = True
        mark[src] = False
        mark[displaced[displaced != UNMATCHED]] = True
        active = np.flatnonzero(mark)
        mark[active] = False

    mate = _suitor_to_mate(suitor)
    # ``ws_w[mate[u]]`` is the weight u proposed to its mate, read from
    # u's own row: the entry ``matching_weight`` would sum for u.  Only
    # the lower endpoints are gathered, in ascending order, the elements
    # and order ``matched_vertex_weight`` sums.
    lower = np.flatnonzero(_vertex_ids(len(mate)) < mate)
    return mate, float(ws_w[mate[lower]].sum()), frontiers, rounds


def suitor_omp_sim(
    graph: CSRGraph, cpu: CpuSpec = CPU_EPYC_7742_2S
) -> MatchResult:
    """SR-OMP: round-synchronous Suitor under a multicore cost model.

    Per round, the active vertices' adjacency is streamed once at the
    host's effective irregular bandwidth across ``cpu.threads`` threads,
    plus one OpenMP barrier.
    """
    mate, weight, frontiers, rounds = _suitor_rounds(graph)
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
        weight=weight,
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

    mate, weight, frontiers, rounds = _suitor_rounds(graph)
    degrees = graph.degrees
    timeline = Timeline()
    for f in frontiers:
        prof = pointing_kernel_cost(spec32, degrees[f], vertices_per_warp)
        timeline.add("pointing", prof.seconds)
        timeline.add("sync", spec32.kernel_launch_us * 1e-6)
    return MatchResult(
        mate=mate,
        weight=weight,
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
