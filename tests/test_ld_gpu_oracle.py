"""Lemma III.1 oracle for LD-GPU's single host array.

``ld_gpu`` keeps one global ``pointers`` / ``mate`` pair and makes one
pointing call per round, because the vertex partition is disjoint and a
MAX allreduce over {-1, owner value} is the owner's write.
:func:`ld_gpu_replicated` is the literal multi-device run it replaces:
every device holds its own copies of both arrays and its own
:class:`PointerIndex` over its row range, points once per (device,
batch), clears its non-owned range to -1 and really MAX-combines the
buffers (:func:`allreduce_max`).
The tests assert that the two agree on every output bit: the matching,
weight, modeled time, per-iteration timeline, every ``stats`` entry and
every telemetry series (per-device kernel launches and H2D bytes
included).  The oracle points either with per-device
:class:`PointerIndex` cursors (``engine="index"``) or with the segment
re-scan (``engine="segment"``, :func:`segment_oracle.compute_pointers`
and the full-scan mutual check); the segment branch does other host
work, so it is held to ``ld_gpu`` on every field but the host counts.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from segment_oracle import compute_pointers
from repro.comm.collectives import allreduce_max
from repro.comm.transfer import h2d_time
from repro.gpusim.kernels import matching_kernel_cost, pointing_kernel_cost
from repro.gpusim.spec import DGX_A100
from repro.gpusim.stream import dual_buffer_schedule
from repro.gpusim.timeline import Timeline
from repro.matching.ld_gpu import (
    _SYNCS_PER_ITERATION,
    LdGpuRun,
    _setup_devices,
    ld_gpu,
)
from repro.matching.ld_seq import find_mutual_pairs
from repro.matching.pointer_index import (
    HOST_SCAN_COUNTER,
    HOST_SCAN_HELP,
    MutualIndex,
    PointerIndex,
)
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matching_weight
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanEmitter, count, observe, record_into


def ld_gpu_replicated(graph, platform=DGX_A100, num_devices=1,
                      num_batches=None, vertices_per_warp=8,
                      max_iterations=None, force_streaming=False,
                      partition="edge", engine="index"):
    """LD-GPU with per-device state and real collectives (always
    collects stats), pointing with ``engine`` ``"index"`` or
    ``"segment"``."""
    n = graph.num_vertices
    spec = platform.device
    parts = _setup_devices(graph, platform, num_devices, num_batches,
                           force_streaming, partition)
    nb = parts[0].plan.num_batches

    pointers = [np.full(n, UNMATCHED, dtype=np.int64) for _ in parts]
    mates = [np.full(n, UNMATCHED, dtype=np.int64) for _ in parts]
    eids = graph.canonical_edge_ids()
    indexes = [PointerIndex(graph, p.start, p.stop) for p in parts] \
        if engine == "index" else None
    mutual = MutualIndex(n) if engine == "index" else None
    timeline = Timeline()
    tel = SpanEmitter(timeline, algorithm="ld_gpu", device=spec.name)
    pointers_g, mate_g = pointers[0], mates[0]

    frontier = np.arange(n, dtype=np.int64)
    series = {k: [] for k in ("edges_scanned", "occupancy",
                              "warp_work_mean", "warp_work_std",
                              "new_matches")}
    iterations = 0
    initial_transfer = 0.0
    host_pointing = host_matching = 0
    degrees = graph.degrees
    while max_iterations is None or iterations < max_iterations:
        timeline.begin_iteration()
        makespans, computes = [], []
        iter_scanned = iter_host = 0
        occ_accum = occ_weight = 0.0
        w_tot = w_max = w_warps = 0
        w_sumsq = 0.0
        for i, p in enumerate(parts):
            dev_frontier = frontier[
                (frontier >= p.start) & (frontier < p.stop)]
            which = np.searchsorted(p.plan.offsets, dev_frontier - p.start,
                                    side="right") - 1
            load_times, comp_times = [], []
            for b in range(nb):
                sel = dev_frontier[which == b]
                if len(sel) == 0:
                    continue
                if p.plan.resident:
                    load_times.append(0.0)
                else:
                    nbytes = int(p.plan.edge_counts[b]) * \
                        spec.bytes_per_adjacency
                    t_load = h2d_time(nbytes, platform.host_link)
                    if iterations == 0:
                        initial_transfer += t_load
                        t_load = 0.0
                    load_times.append(t_load)
                    p.device.record_h2d(nbytes)
                    observe(
                        "repro_batch_load_seconds", t_load,
                        "Chargeable per-batch H2D load seconds "
                        "(iteration-0 placement loads excluded).",
                        algorithm="ld_gpu",
                        device=f"{spec.name}#{p.device.device_id}",
                        batch=b,
                    )
                prof = pointing_kernel_cost(spec, degrees[sel],
                                            vertices_per_warp)
                comp_times.append(prof.seconds)
                p.device.record_kernel()
                ws = prof.warp_stats
                occ_accum += prof.occupancy * ws.num_warps
                occ_weight += ws.num_warps
                w_tot += ws.total_work
                w_max = max(w_max, ws.max_work)
                w_sumsq += (ws.std_work**2 + ws.mean_work**2) * ws.num_warps
                w_warps += ws.num_warps
                if indexes is not None:
                    iter_scanned += indexes[i].point(mate_g, pointers[i],
                                                     sel)
                    iter_host += indexes[i].last_host_scanned
                else:
                    lo_e = graph.indptr[p.start]
                    scanned = compute_pointers(
                        graph.indptr[p.start:p.stop + 1] - lo_e,
                        graph.indices[lo_e:],
                        graph.weights[lo_e:], eids[lo_e:], mate_g,
                        pointers[i], sel, row_offset=p.start)
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

        for i, p in enumerate(parts):
            pointers[i][:p.start] = UNMATCHED
            pointers[i][p.stop:] = UNMATCHED
        tel.emit("allreduce_pointers",
                 allreduce_max(pointers, platform.gpu_link))
        pointers_g = pointers[0]

        if mutual is not None:
            lo, hi = mutual.find_pairs(pointers_g, frontier)
            match_host = mutual.last_host_scanned
        else:
            lo, hi = find_mutual_pairs(pointers_g, None)
            match_host = n
        host_matching += match_host
        count(HOST_SCAN_COUNTER, iter_host + match_host, HOST_SCAN_HELP,
              algorithm="ld_gpu", device=spec.name)
        match_times = []
        for i, p in enumerate(parts):
            own_lo = lo[(lo >= p.start) & (lo < p.stop)]
            mates[i][own_lo] = pointers_g[own_lo]
            own_hi = hi[(hi >= p.start) & (hi < p.stop)]
            mates[i][own_hi] = pointers_g[own_hi]
            match_times.append(
                matching_kernel_cost(spec, p.num_vertices).seconds)
            p.device.record_kernel()
        tel.emit("matching", max(match_times) if match_times else 0.0)

        tel.emit("allreduce_mate", allreduce_max(mates, platform.gpu_link))
        mate_g = mates[0]
        tel.emit("sync",
                 (_SYNCS_PER_ITERATION + max(0, nb - 2))
                 * spec.kernel_launch_us * 1e-6
                 + platform.gpu_link.latency_s)

        series["edges_scanned"].append(iter_scanned)
        series["occupancy"].append(
            occ_accum / occ_weight if occ_weight else 0.0)
        mean_w = w_tot / w_warps if w_warps else 0.0
        var_w = max(0.0, w_sumsq / w_warps - mean_w**2) if w_warps \
            else 0.0
        series["warp_work_mean"].append(mean_w)
        series["warp_work_std"].append(var_w**0.5)
        series["new_matches"].append(len(lo))

        iterations += 1
        timeline.end_iteration()
        if len(lo) == 0:
            break
        for ptr in pointers:
            ptr[lo] = UNMATCHED
            ptr[hi] = UNMATCHED
        pointers_g = pointers[0]
        live = np.nonzero((mate_g == UNMATCHED) & (pointers_g >= 0))[0]
        frontier = live[mate_g[pointers_g[live]] != UNMATCHED]

    # Every device ends with the same merged arrays.
    for ptr, mate in zip(pointers, mates):
        assert np.array_equal(ptr, pointers_g)
        assert np.array_equal(mate, mate_g)
    weight = matching_weight(graph, mate_g)
    stats = {
        "config": LdGpuRun(platform.name, num_devices, nb,
                           vertices_per_warp),
        "host_entries_scanned": host_pointing + host_matching,
        "host_entries_scanned_pointing": host_pointing,
        "host_entries_scanned_matching": host_matching,
        "initial_transfer_s": initial_transfer,
        "device_peak_bytes": [p.device.memory.peak for p in parts],
        "partition_offsets": np.array(
            [p.start for p in parts] + [parts[-1].stop], dtype=np.int64),
        "edges_scanned": np.asarray(series["edges_scanned"],
                                    dtype=np.int64),
        "occupancy": np.asarray(series["occupancy"]),
        "warp_work_mean": np.asarray(series["warp_work_mean"]),
        "warp_work_std": np.asarray(series["warp_work_std"]),
        "new_matches": np.asarray(series["new_matches"], dtype=np.int64),
    }
    return MatchResult(mate=mate_g.copy(), weight=weight,
                       algorithm="ld_gpu", iterations=iterations,
                       sim_time=timeline.total, timeline=timeline,
                       stats=stats)


def _canon(x):
    """Exact, comparable form of a result field (floats as hex)."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return (str(x.dtype), x.shape, x.tobytes())
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, LdGpuRun):
        return _canon(vars(x))
    return x


def _fields(r):
    """Every field of a result, in exact comparable form."""
    return _canon({
        "mate": r.mate, "weight": r.weight, "sim_time": r.sim_time,
        "iterations": r.iterations, "timeline": r.timeline.iterations,
        "totals": r.timeline.totals, "stats": r.stats,
    })


def _record(fn, graph, **kwargs):
    """Run ``fn`` under a fresh metrics registry; returns the result's
    fields plus every telemetry series the run emitted."""
    registry = MetricsRegistry()
    with record_into(registry):
        r = fn(graph, **kwargs)
    return _fields(r), registry.snapshot().to_dict()


#: The host-work counts: the only fields in which the oracle's segment
#: branch differs from ``ld_gpu``.
HOST_WORK = ("host_entries_scanned", "host_entries_scanned_pointing",
             "host_entries_scanned_matching")


def _without_host_work(recorded):
    fields, series = recorded
    fields = {**fields, "stats": {k: v for k, v in fields["stats"].items()
                                  if k not in HOST_WORK}}
    return fields, {k: v for k, v in series.items()
                    if k != HOST_SCAN_COUNTER}


def assert_matches_oracle(graph, engine="index", **kwargs):
    """``ld_gpu`` and the replicated oracle pointing with ``engine``
    agree bit for bit (host counts aside for the segment branch)."""
    got = _record(ld_gpu, graph, **kwargs)
    want = _record(ld_gpu_replicated, graph, engine=engine, **kwargs)
    if engine == "segment":
        got, want = _without_host_work(got), _without_host_work(want)
        assert set(got[0]["stats"]) == set(want[0]["stats"])
    assert got == want


def _graphs():
    from repro.graph.generators import kmer_graph, rmat_graph

    star = build_graph(40, [(0, i, 1.0 / i) for i in range(1, 40)], "star")
    ties = build_graph(12, [(i, j, 1.0) for i in range(12)
                            for j in range(i + 1, 12)], "K12-ties")
    two = build_graph(10, [(0, 1, 0.5), (1, 2, 0.7), (2, 0, 0.6),
                           (6, 7, 0.2), (7, 8, 0.9), (8, 9, 0.4)],
                      "disconnected")
    return {
        "rmat": rmat_graph(9, 8, seed=42, name="rmat"),
        "kmer": kmer_graph(3000, avg_degree=2.2, seed=3),
        "empty": build_graph(6, []),
        "single-edge": build_graph(2, [(0, 1, 1.0)]),
        "star": star,
        "ties": ties,
        "disconnected": two,
    }


GRAPHS = _graphs()

#: ``(num_batches, force_streaming)`` pairs of the grid.
BATCHING = [(None, False), (2, False), (3, False), (2, True), (3, True)]


class TestReplicatedOracle:
    @pytest.mark.parametrize("engine", ["index", "segment"])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_grid(self, name, engine):
        g = GRAPHS[name]
        for nd in range(1, 9):
            for partition in ("edge", "vertex"):
                for nb, streaming in BATCHING:
                    assert_matches_oracle(
                        g, num_devices=nd, partition=partition,
                        num_batches=nb, force_streaming=streaming,
                        engine=engine)

    @given(random_graphs(max_vertices=24, max_edges=60),
           st.integers(1, 8), st.sampled_from(["edge", "vertex"]),
           st.sampled_from(BATCHING), st.sampled_from(["index", "segment"]))
    def test_property(self, g, nd, partition, batching, engine):
        nb, streaming = batching
        assert_matches_oracle(g, num_devices=nd, partition=partition,
                              num_batches=nb, force_streaming=streaming,
                              engine=engine)

    @given(random_graphs(max_vertices=16, max_edges=40, tie_prone=True),
           st.integers(1, 8), st.sampled_from(BATCHING))
    def test_property_ties(self, g, nd, batching):
        nb, streaming = batching
        assert_matches_oracle(g, num_devices=nd, num_batches=nb,
                              force_streaming=streaming)

    def test_max_iterations(self):
        assert_matches_oracle(GRAPHS["rmat"], num_devices=3,
                              num_batches=2, max_iterations=2)

    @pytest.mark.parametrize("nd", [1, 3, 8])
    def test_device_peak_bytes(self, nd):
        """Resident runs charge both global arrays per device, as the
        per-device copies did."""
        g = GRAPHS["rmat"]
        r = ld_gpu(g, num_devices=nd)
        off = r.stats["partition_offsets"]
        expect = [2 * g.num_vertices * 8 + (stop - start + 1) * 8
                  + int(g.indptr[stop] - g.indptr[start])
                  * DGX_A100.device.bytes_per_adjacency
                  for start, stop in zip(off[:-1], off[1:])]
        assert r.stats["device_peak_bytes"] == expect

