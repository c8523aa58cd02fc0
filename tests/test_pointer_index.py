"""Pointer-index engine: bit-identity with the segment oracle.

The index engine must be indistinguishable from the segment re-scan
(:mod:`segment_oracle`) in every *result* quantity — mate array,
matched weight, iteration count, modeled ``edges_scanned``,
``frontier_sizes`` and ``new_matches`` — while shrinking only the
*host* work it reports through ``host_entries_scanned``.  These tests
hold ``ld_seq`` and ``ld_gpu`` to the oracle across random graphs
(plain and tie-prone), the dataset generators under both weight
schemes, and the LD-GPU (devices, batches, partition) grid, plus unit
coverage for cursor reuse, ``row_offset`` and the satellite fast paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from segment_oracle import (
    compute_pointers,
    gather_rows,
    ld_seq_segment,
    row_ids,
    segment_rounds,
)
from test_ld_gpu_oracle import ld_gpu_replicated
from test_sorted_rows import FIXED
from repro.graph.generators import (
    powerlaw_cluster_graph,
    queen_mesh,
    rmat_graph,
    uniform_random_graph,
)
from repro.gpusim.spec import DGX_A100
from repro.matching import ld_gpu, ld_seq
from repro.matching.ld_seq import find_mutual_pairs, next_frontier
from repro.matching.pointer_index import (
    HOST_SCAN_COUNTER,
    MutualIndex,
    PointerIndex,
)
from repro.matching.types import UNMATCHED
from repro.matching.validate import matching_weight


def tie_heavy(graph):
    """Integer weights from {1, 2, 3} keyed on the canonical edge id —
    symmetric by construction and dense with ties."""
    if graph.num_directed_edges == 0:
        return graph
    w = (graph.canonical_edge_ids() % 3 + 1).astype(np.float64)
    return graph.reweighted(w)


#: The per-round series every LD driver and the oracle record.
SERIES = ("edges_scanned", "frontier_sizes", "new_matches")


def assert_same_run(got, want):
    """``got`` reproduces ``want``: mate, weight bits, rounds and every
    per-round series both of them record."""
    assert np.array_equal(got.mate, want.mate)
    assert got.weight.hex() == want.weight.hex()
    assert got.iterations == want.iterations
    for key in SERIES:
        if key in got.stats or key in want.stats:
            assert np.array_equal(got.stats[key], want.stats[key]), key


# ------------------------------------------------------------------ #
# no pointing-engine switch: ld_seq / ld_gpu take no ``engine``
# ------------------------------------------------------------------ #


def test_resolve_env(tie_graph, monkeypatch):
    """The retired ``REPRO_POINTING_ENGINE`` variable selects nothing,
    and no result names an engine."""
    monkeypatch.setenv("REPRO_POINTING_ENGINE", "segment")
    assert_same_run(ld_seq(tie_graph), ld_seq_segment(tie_graph))
    r = ld_gpu(tie_graph, num_devices=2)
    assert "pointing_engine" not in r.stats
    assert not hasattr(r.stats["config"], "pointing_engine")


def test_resolve_unknown(tie_graph):
    """``engine=`` is no keyword of either driver, whatever its value."""
    for fn in (ld_seq, ld_gpu):
        for name in ("index", "segment", "radix"):
            with pytest.raises(TypeError, match="engine"):
                fn(tie_graph, engine=name)


# ------------------------------------------------------------------ #
# randomized oracle identity — ld_seq
# ------------------------------------------------------------------ #


@given(g=random_graphs())
def test_ld_seq_engines_identical_random(g):
    assert_same_run(ld_seq(g), ld_seq_segment(g))


@given(g=random_graphs(tie_prone=True))
def test_ld_seq_engines_identical_tie_prone(g):
    assert_same_run(ld_seq(g), ld_seq_segment(g))


@given(g=random_graphs(tie_prone=True))
def test_ld_seq_engines_identical_full_rescan(g):
    assert_same_run(ld_seq(g, full_rescan=True),
                    ld_seq_segment(g, full_rescan=True))


GENERATORS = [
    pytest.param(lambda: rmat_graph(7, 6, seed=3, name="rmat"),
                 id="rmat"),
    pytest.param(lambda: uniform_random_graph(150, 900, seed=4,
                                              name="urand"),
                 id="uniform"),
    pytest.param(lambda: powerlaw_cluster_graph(160, avg_degree=8.0,
                                                seed=5, name="plc"),
                 id="powerlaw"),
    pytest.param(lambda: queen_mesh(12, name="queen"), id="queen"),
]


@pytest.mark.parametrize("gen", GENERATORS)
@pytest.mark.parametrize("scheme", ["uniform", "ties"])
def test_ld_seq_engines_identical_generators(gen, scheme):
    g = gen()
    if scheme == "ties":
        g = tie_heavy(g)
    assert_same_run(ld_seq(g), ld_seq_segment(g))


# ------------------------------------------------------------------ #
# oracle identity — ld_gpu across the configuration grid, against the
# replicated oracle's segment branch
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("devices,batches,partition", [
    (1, None, "edge"),
    (2, 1, "edge"),
    (2, 3, "edge"),
    (4, 2, "edge"),
    (3, 2, "vertex"),
])
def test_ld_gpu_engines_identical_grid(medium_graph, devices, batches,
                                       partition):
    kw = dict(num_devices=devices, num_batches=batches,
              partition=partition, force_streaming=batches is not None)
    got = ld_gpu(medium_graph, **kw)
    want = ld_gpu_replicated(medium_graph, engine="segment", **kw)
    assert_same_run(got, want)
    assert got.sim_time.hex() == want.sim_time.hex()


@pytest.mark.parametrize("devices,batches", [(2, 2), (3, 1)])
def test_ld_gpu_engines_identical_ties(devices, batches):
    g = tie_heavy(rmat_graph(8, 6, seed=9, name="rmat-ties"))
    got = ld_gpu(g, num_devices=devices, num_batches=batches)
    want = ld_gpu_replicated(g, num_devices=devices, num_batches=batches,
                             engine="segment")
    assert_same_run(got, want)
    assert got.sim_time.hex() == want.sim_time.hex()


def test_ld_gpu_matches_ld_seq(medium_graph):
    seq = ld_seq(medium_graph)
    gpu = ld_gpu(medium_graph, num_devices=4, num_batches=2)
    assert np.array_equal(seq.mate, gpu.mate)


# ------------------------------------------------------------------ #
# cursor mechanics
# ------------------------------------------------------------------ #


def _fresh_pointers(graph, mate, frontier):
    """Oracle: pointers computed from scratch by the segment engine."""
    pointer = np.full(graph.num_vertices, UNMATCHED, dtype=np.int64)
    compute_pointers(graph.indptr, graph.indices, graph.weights,
                     graph.canonical_edge_ids(), mate, pointer, frontier)
    return pointer


def test_cursors_persist_across_iterations(medium_graph):
    """A single index, reused round after round as ``mate`` fills in,
    stays identical to from-scratch segment pointing every round."""
    g = medium_graph
    idx = PointerIndex(g)
    rng = np.random.default_rng(0)
    mate = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    pointer = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    for _ in range(6):
        frontier = np.nonzero(mate == UNMATCHED)[0]
        idx.point(mate, pointer, frontier)
        expect = _fresh_pointers(g, mate, frontier)
        assert np.array_equal(pointer[frontier], expect[frontier])
        # Mark a random subset of pointed-at pairs matched (monotone
        # availability, as in a real run).
        live = frontier[pointer[frontier] != UNMATCHED]
        pick = live[rng.random(len(live)) < 0.3]
        mate[pick] = pointer[pick]
        mate[pointer[pick]] = pick
    assert np.all(idx.cursor >= g.indptr[:-1])
    assert np.all(idx.cursor <= g.indptr[1:])


def test_point_modeled_count_is_frontier_degrees(triangle):
    g = triangle
    idx = PointerIndex(g)
    mate = np.full(3, UNMATCHED, dtype=np.int64)
    pointer = np.full(3, UNMATCHED, dtype=np.int64)
    frontier = np.arange(3)
    modeled = idx.point(mate, pointer, frontier)
    assert modeled == int(g.degrees.sum())
    assert idx.last_host_scanned == 3  # first live entry of each row
    assert idx.host_entries_scanned == 3


def _some_matching(g, seed):
    """A random (not necessarily maximal) matching of ``g``'s edges."""
    mate = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(g.num_vertices), g.degrees)
    for e in rng.permutation(g.num_directed_edges):
        a, b = int(rows[e]), int(g.indices[e])
        if mate[a] == UNMATCHED and mate[b] == UNMATCHED and \
                rng.random() < 0.5:
            mate[a], mate[b] = b, a
    return mate


@given(random_graphs(), st.integers(0, 2**32 - 1))
def test_first_point_with_matches_walks(g, seed):
    """A first ``point`` call that already sees matches walks past them
    and equals from-scratch segment pointing, over a frontier and over
    every row (``None``, which skips the walk only while ``mate`` is
    empty)."""
    mate = _some_matching(g, seed)
    frontier = np.flatnonzero(mate == UNMATCHED)
    idx = PointerIndex(g)
    pointer = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    idx.point(mate, pointer, frontier)
    expect = _fresh_pointers(g, mate, frontier)
    assert np.array_equal(pointer, expect)
    idx = PointerIndex(g)
    idx.point(mate, pointer, None)
    every = np.arange(g.num_vertices)
    assert np.array_equal(pointer, _fresh_pointers(g, mate, every))


def test_first_point_skips_only_an_empty_mate(medium_graph):
    """Every row, given as ``arange(n)`` or as ``None``, on a fresh
    index: an empty ``mate`` examines each non-empty row's head once
    and moves no cursor; one match makes the first call walk."""
    g = medium_graph
    frontier = np.arange(g.num_vertices)
    empty = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    for arg in (frontier, None):
        idx = PointerIndex(g)
        pointer = empty.copy()
        idx.point(empty, pointer, arg)
        assert idx.last_host_scanned == int(np.count_nonzero(g.degrees))
        assert np.array_equal(idx.cursor, g.indptr[:-1])
        assert np.array_equal(pointer, _fresh_pointers(g, empty, frontier))

        # Match the heaviest edge's endpoints: both sit at a row head.
        a = int(np.argmax(g.degrees > 0))
        b = int(pointer[a])
        mate = empty.copy()
        mate[a], mate[b] = b, a
        idx = PointerIndex(g)
        pointer = empty.copy()
        idx.point(mate, pointer, arg)
        assert idx.cursor[a] > g.indptr[a]  # its head entry, b, is matched
        assert np.array_equal(pointer, _fresh_pointers(g, mate, frontier))


# ------------------------------------------------------------------ #
# the dense first round: ``frontier=None`` means every row
# ------------------------------------------------------------------ #

def _row_ranges(n):
    """Every row, both halves, an inner range and an empty range."""
    third, half = n // 3, n // 2
    return sorted({(0, n), (0, half), (half, n), (third, n - third),
                   (third, third)})


def _assert_dense_point_equals_arange(g, mate):
    """``point(None)`` and ``point(arange(start, stop))`` on two fresh
    indexes over each row range agree in every output."""
    n = g.num_vertices
    for start, stop in _row_ranges(n):
        dense = PointerIndex(g, start, stop)
        walk = PointerIndex(g, start, stop)
        p_dense = np.full(n, 7, dtype=np.int64)  # rows outside keep 7
        p_walk = p_dense.copy()
        got = dense.point(mate, p_dense, None)
        want = walk.point(mate, p_walk, np.arange(start, stop))
        assert got == want == int(g.indptr[stop] - g.indptr[start])
        assert np.array_equal(p_dense, p_walk)
        assert np.array_equal(dense.cursor, walk.cursor)
        assert dense.last_host_scanned == walk.last_host_scanned
        assert dense.host_entries_scanned == walk.host_entries_scanned
        rows = np.arange(start, stop)
        assert np.array_equal(p_dense[rows],
                              _fresh_pointers(g, mate, rows)[rows])


@given(random_graphs(), st.integers(0, 2**32 - 1))
def test_dense_point_equals_arange(g, seed):
    empty = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    _assert_dense_point_equals_arange(g, empty)
    _assert_dense_point_equals_arange(g, _some_matching(g, seed))


@pytest.mark.parametrize("name", sorted(FIXED))
def test_dense_point_equals_arange_fixed(name):
    g = FIXED[name]
    empty = np.full(g.num_vertices, UNMATCHED, dtype=np.int64)
    _assert_dense_point_equals_arange(g, empty)
    for seed in range(3):
        _assert_dense_point_equals_arange(g, _some_matching(g, seed))


@given(random_graphs(), st.integers(0, 2**32 - 1))
def test_next_frontier_none_equals_arange(g, seed):
    """Whatever the arrays hold, ``holders=None`` equals passing every
    vertex."""
    n = g.num_vertices
    rng = np.random.default_rng(seed)
    mate = rng.integers(-1, n, n)
    pointer = rng.integers(-1, n, n)
    got = next_frontier(None, mate, pointer)
    want = next_frontier(np.arange(n), mate, pointer)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _ld_over_ranges(g, cuts):
    """LD rounds with one :class:`PointerIndex` per row range, each
    pointing every row in round 1 and its slice of the frontier after
    (LD-GPU's replicated oracle without its costs)."""
    n = g.num_vertices
    indexes = [PointerIndex(g, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    mutual = MutualIndex(n)
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)
    frontier = holders = None
    while True:
        for ix in indexes:
            sel = None if frontier is None else frontier[
                (frontier >= ix.row_offset)
                & (frontier < ix.row_offset + ix.num_rows)]
            ix.point(mate, pointer, sel)
        lo, hi = mutual.find_pairs(pointer, frontier)
        if len(lo) == 0:
            return mate, indexes
        mate[lo], mate[hi] = hi, lo
        pointer[lo] = pointer[hi] = UNMATCHED
        holders, frontier = next_frontier(holders, mate, pointer)


def _range_weight(g, mate, start, stop):
    """:func:`matching_weight`'s row scan, kept to lower endpoints in
    ``[start, stop)``: the same elements in the same order."""
    rid = row_ids(g.indptr)
    hit = (mate[rid] == g.indices) & (rid < g.indices) \
        & (rid >= start) & (rid < stop)
    return float(g.weights[hit].sum())


def _assert_matched_weight(g):
    n = g.num_vertices
    want = ld_seq(g)
    for cuts in ([0, n], [0, n // 3, n // 2, n]):
        mate, indexes = _ld_over_ranges(g, cuts)
        assert np.array_equal(mate, want.mate)
        for ix in indexes:
            stop = ix.row_offset + ix.num_rows
            assert ix.matched_weight(mate).hex() == _range_weight(
                g, mate, ix.row_offset, stop).hex()
    whole = matching_weight(g, want.mate)
    assert want.weight.hex() == whole.hex()
    assert ld_seq_segment(g).weight.hex() == whole.hex()
    assert ld_gpu(g, num_devices=3).weight.hex() == whole.hex()


@given(random_graphs())
def test_matched_weight_bit_equal(g):
    _assert_matched_weight(g)


@given(random_graphs(tie_prone=True))
def test_matched_weight_bit_equal_ties(g):
    _assert_matched_weight(g)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_matched_weight_bit_equal_fixed(name):
    _assert_matched_weight(FIXED[name])


def test_matched_weight_bit_equal_medium(medium_graph):
    _assert_matched_weight(medium_graph)
    _assert_matched_weight(tie_heavy(medium_graph))


def _formula_frontier(mate, pointer):
    """The frontier rule written over every vertex."""
    live = np.nonzero((mate == UNMATCHED) & (pointer >= 0))[0]
    return live[mate[pointer[live]] != UNMATCHED]


def _assert_frontier_rule(g):
    """Drive LD rounds and compare :func:`next_frontier` with the
    whole-array formula on every mid-run state."""
    n = g.num_vertices
    pointing, mutual = PointerIndex(g), MutualIndex(n)
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    pointer = np.full(n, UNMATCHED, dtype=np.int64)
    frontier = holders = np.arange(n, dtype=np.int64)
    while True:
        pointing.point(mate, pointer, frontier)
        lo, hi = mutual.find_pairs(pointer, frontier)
        if len(lo) == 0:
            return
        mate[lo], mate[hi] = hi, lo
        pointer[lo] = pointer[hi] = UNMATCHED
        holders, frontier = next_frontier(holders, mate, pointer)
        assert np.array_equal(frontier, _formula_frontier(mate, pointer))
        assert np.array_equal(holders, np.flatnonzero(pointer >= 0))


@given(random_graphs())
def test_next_frontier_equals_formula(g):
    _assert_frontier_rule(g)


@given(random_graphs(tie_prone=True))
def test_next_frontier_equals_formula_ties(g):
    _assert_frontier_rule(g)


def test_next_frontier_equals_formula_rmat():
    _assert_frontier_rule(tie_heavy(rmat_graph(9, 8, seed=5, name="r")))


def test_empty_frontier_and_empty_graph():
    g = build_graph(4, [])
    idx = PointerIndex(g)
    mate = np.full(4, UNMATCHED, dtype=np.int64)
    pointer = np.full(4, UNMATCHED, dtype=np.int64)
    assert idx.point(mate, pointer, np.arange(4)) == 0
    assert idx.point(mate, pointer, np.array([], dtype=np.int64)) == 0
    assert np.all(pointer == UNMATCHED)
    assert idx.host_entries_scanned == 0


def test_host_scanned_amortized(medium_graph):
    """Across a whole run the index engine examines each adjacency
    entry at most once past its first visit: pointing work is bounded
    by m + total frontier size, matching work by the total number of
    pointer-value changes (<= m + n: each vertex's pointer only walks
    down its sorted row before going UNMATCHED) — both far below the
    modeled O(m x rounds) / O(n x rounds) full sweeps."""
    r = ld_seq(medium_graph)
    host = r.stats["host_entries_scanned"]
    pointing = r.stats["host_entries_scanned_pointing"]
    matching = r.stats["host_entries_scanned_matching"]
    modeled = int(np.sum(r.stats["edges_scanned"]))
    m = medium_graph.num_directed_edges
    n = medium_graph.num_vertices
    assert host == pointing + matching
    assert 0 < pointing <= modeled
    assert pointing <= m + n * r.iterations
    assert 0 < matching <= m + 2 * n
    assert matching < n * r.iterations  # the oracle's matching bill


def test_matching_phase_breakdown_vs_oracle(medium_graph):
    """The segment oracle charges its full sweeps honestly — n probes
    per round in the matching phase — while producing the identical
    result; the breakdown keys expose exactly that gap."""
    ri = ld_seq(medium_graph)
    rs = ld_seq_segment(medium_graph)
    assert_same_run(ri, rs)
    n = medium_graph.num_vertices
    assert rs.stats["host_entries_scanned_matching"] \
        == n * rs.iterations
    assert ri.stats["host_entries_scanned_matching"] \
        < rs.stats["host_entries_scanned_matching"]
    assert rs.stats["host_entries_scanned"] \
        == rs.stats["host_entries_scanned_pointing"] \
        + rs.stats["host_entries_scanned_matching"]


def _lockstep_rounds(g, full_rescan=False):
    """Drive the oracle's rounds (:func:`segment_rounds`, full-scan
    matching) with a :class:`MutualIndex` checking each round's
    pointers side by side, yielding both pair sets every round — the
    oracle-identity harness for the delta engine."""
    mutual = MutualIndex(g.num_vertices)
    for _, pointer, frontier, _, lo, hi in segment_rounds(g, full_rescan):
        delta = mutual.find_pairs(pointer, frontier)
        yield (lo, hi), delta, mutual.last_host_scanned, len(frontier)


@pytest.mark.parametrize("full_rescan", [False, True])
def test_mutual_index_lockstep_with_oracle(full_rescan):
    """Round by round on a tie-heavy graph, the delta engine reports
    the oracle's exact pair rows while probing only changed pointers."""
    g = tie_heavy(rmat_graph(7, 6, seed=11, name="lockstep"))
    rounds = 0
    for oracle, delta, probed, fsize in _lockstep_rounds(
            g, full_rescan=full_rescan):
        assert np.array_equal(oracle[0], delta[0])
        assert np.array_equal(oracle[1], delta[1])
        assert probed <= fsize  # never more than the re-pointed set
        rounds += 1
    assert rounds > 1


@given(g=random_graphs(tie_prone=True))
def test_mutual_index_lockstep_random(g):
    for oracle, delta, _, _ in _lockstep_rounds(g):
        assert np.array_equal(oracle[0], delta[0])
        assert np.array_equal(oracle[1], delta[1])


def test_mutual_index_none_diffs_whole_array():
    """``candidates=None`` self-detects changes against ``prev``."""
    pointer = np.array([1, 0, UNMATCHED, UNMATCHED], dtype=np.int64)
    mutual = MutualIndex(4)
    lo, hi = mutual.find_pairs(pointer, None)
    assert np.array_equal(lo, [0]) and np.array_equal(hi, [1])
    assert mutual.last_host_scanned == 2  # the two changed entries
    # Nothing changed: nothing probed, nothing (re-)reported.
    lo, hi = mutual.find_pairs(pointer, None)
    assert len(lo) == 0 and mutual.last_host_scanned == 0
    assert mutual.host_entries_scanned == 2


def test_row_offset_matches_global(medium_graph):
    """Per-partition indices (row-range slices of the graph's sorted
    rows, exactly how LD-GPU builds them) agree with global pointing."""
    g = medium_graph
    n = g.num_vertices
    eids = g.canonical_edge_ids()
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    # Pre-match some vertices so cursor skipping is exercised.
    mate[::7] = (np.arange(n)[::7] + 1) % n
    split = n // 3
    global_ptr = np.full(n, UNMATCHED, dtype=np.int64)
    part_ptr = np.full(n, UNMATCHED, dtype=np.int64)
    frontier = np.nonzero(mate == UNMATCHED)[0]
    compute_pointers(g.indptr, g.indices, g.weights, eids, mate,
                     global_ptr, frontier)
    for start, stop in ((0, split), (split, n)):
        idx = PointerIndex(g, start, stop)
        sel = frontier[(frontier >= start) & (frontier < stop)]
        idx.point(mate, part_ptr, sel)
    assert np.array_equal(part_ptr[frontier], global_ptr[frontier])


# ------------------------------------------------------------------ #
# telemetry
# ------------------------------------------------------------------ #


def test_host_scan_counter_emitted(tie_graph):
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.spans import record_into

    reg = MetricsRegistry()
    with record_into(reg):
        r = ld_seq(tie_graph)
    child = reg.counter(HOST_SCAN_COUNTER, algorithm="ld_seq")
    assert child.value == r.stats["host_entries_scanned"] > 0

    reg = MetricsRegistry()
    with record_into(reg):
        r = ld_gpu(tie_graph, num_devices=2)
    child = reg.counter(HOST_SCAN_COUNTER, algorithm="ld_gpu",
                        device=DGX_A100.device.name)
    assert child.value == r.stats["host_entries_scanned"] > 0
    samples = reg.snapshot().to_dict()[HOST_SCAN_COUNTER]["samples"]
    assert all("engine" not in s["labels"] for s in samples)


# ------------------------------------------------------------------ #
# satellite fast paths
# ------------------------------------------------------------------ #


def test_gather_rows_contiguous_fast_path(medium_graph):
    g = medium_graph
    contiguous = np.arange(10, 40, dtype=np.int64)
    scattered = np.array([3, 9, 4, 40], dtype=np.int64)
    single = np.array([17], dtype=np.int64)
    for rows in (contiguous, scattered, single):
        sub_indptr, positions = gather_rows(g.indptr, rows)
        # Reference construction, row by row.
        ref = np.concatenate(
            [np.arange(g.indptr[r], g.indptr[r + 1]) for r in rows]
        ) if len(rows) else np.array([], dtype=np.int64)
        assert np.array_equal(positions, ref)
        assert np.array_equal(np.diff(sub_indptr),
                              g.degrees[rows])


def test_find_mutual_pairs_dedup():
    pointer = np.array([1, 0, 3, 2, UNMATCHED], dtype=np.int64)
    lo, hi = find_mutual_pairs(pointer)
    assert np.array_equal(lo, [0, 2])
    assert np.array_equal(hi, [1, 3])
    # Both endpoints in the candidate set must not duplicate the pair.
    lo, hi = find_mutual_pairs(pointer, np.array([0, 1, 2, 3, 3, 0]))
    assert np.array_equal(lo, [0, 2])
    assert np.array_equal(hi, [1, 3])


def test_csr_caches_are_memoised_and_readonly(triangle):
    d1 = triangle.degrees
    assert d1 is triangle.degrees
    assert not d1.flags.writeable
    e1 = triangle.canonical_edge_ids()
    assert e1 is triangle.canonical_edge_ids()
    assert not e1.flags.writeable


# ------------------------------------------------------------------ #
# bench integration: builder-backed cells and the pointing suite
# ------------------------------------------------------------------ #


def test_pointing_suite_shape():
    from repro.harness.bench import SUITES, tie_clique_300, tie_path_6000

    suite = SUITES["pointing"]
    # One pointing path: no workload selects an engine.
    assert not any("engine" in w.overrides for w in suite)
    g = tie_clique_300()
    assert g.num_vertices == 300
    assert np.all(g.weights == 1.0)
    assert tie_path_6000().num_directed_edges == 2 * 5999


def test_graph_plane_suite_shape():
    from repro.harness.bench import SUITES, tie_path_3000

    suite = SUITES["graph_plane"]
    assert not any("engine" in w.overrides for w in suite)
    g = tie_path_3000()
    assert g.num_vertices == 3000
    assert g.num_directed_edges == 2 * 2999
    assert np.all(g.weights == 1.0)
    # Stats stay on for every workload: host_entries_scanned is the
    # suite's gated metric.
    assert not any(w.overrides.get("collect_stats") is False
                   for w in suite)


def test_run_cells_builder_graph():
    from repro.engine.cells import Cell, run_cells
    from repro.harness.bench import tie_clique_300

    record, = run_cells([Cell("ld_seq", build=tie_clique_300)])
    want = ld_seq_segment(tie_clique_300())
    assert record.ok
    assert record.graph == "tie-clique-300"
    assert record.weight == want.weight
    assert record.iterations == want.iterations == 151
