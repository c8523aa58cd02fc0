"""The stream plane's and the graph builders' array code against their
reference oracles.

``EdgeStream.generate`` keeps the live edges as int64 keys, ``from_coo``
sorts only the mirrored half of a graph, ``assign_uniform_weights``
draws straight into the ``row < col`` entries and ``_build_layout``
frees each temporary as it goes; each must give exactly what the
straightforward versions below give.  The oracles are the earlier
production code, kept here verbatim: a list of ``(u, v)`` tuples plus a
position dict for the generator, one sort of all ``2m`` directed keys
for ``from_coo``, ``np.unique`` over every entry's canonical edge id
for the weights, and the ``int64``-row-id layout sort.
"""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_graph, random_graphs
from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph, GraphFormatError
from repro.graph.generators import rmat_graph
from repro.graph.generators.weights import assign_uniform_weights
from repro.graph.overlay import OverlayGraph
from repro.harness.datasets import DATASETS
from repro.streaming import EdgeStream, UpdateBatch


# ------------------------------------------------------------------ #
# oracles
# ------------------------------------------------------------------ #
def generate_reference(
    graph: CSRGraph,
    num_batches: int = 8,
    batch_size: int = 32,
    seed: int = 0,
    p_insert: float = 0.55,
    p_delete: float = 0.25,
) -> EdgeStream:
    """``EdgeStream.generate`` over a tuple list and a dict."""
    if num_batches < 0 or batch_size < 1:
        raise ValueError("need num_batches >= 0 and batch_size >= 1")
    if not (0 <= p_insert and 0 <= p_delete
            and p_insert + p_delete <= 1):
        raise ValueError("op probabilities must be a sub-distribution")
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least 2 vertices to stream updates")
    rng = np.random.default_rng(seed)
    bu, bv, _ = graph.edge_array()
    live: list[tuple[int, int]] = list(zip(bu.tolist(), bv.tolist()))
    pos = {e: i for i, e in enumerate(live)}

    def draw_weight() -> float:
        return float(np.round(rng.random() * 0.998 + 0.001, 6))

    def pop_live(i: int) -> tuple[int, int]:
        e = live[i]
        last = live.pop()
        if i < len(live):
            live[i] = last
            pos[last] = i
        del pos[e]
        return e

    batches = []
    for _ in range(num_batches):
        ops: list[tuple[str, int, int, float | None]] = []
        for _ in range(batch_size):
            r = float(rng.random())
            if r >= p_insert and live:
                i = int(rng.integers(0, len(live)))
                if r < p_insert + p_delete:
                    u, v = pop_live(i)
                    ops.append(("delete", u, v, None))
                else:
                    u, v = live[i]
                    ops.append(("reweight", u, v, draw_weight()))
                continue
            placed = False
            for _attempt in range(32):
                a, b = (int(x) for x in rng.integers(0, n, 2))
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                if key in pos:
                    continue
                pos[key] = len(live)
                live.append(key)
                ops.append(("insert", key[0], key[1], draw_weight()))
                placed = True
                break
            if not placed and live:
                i = int(rng.integers(0, len(live)))
                u, v = live[i]
                ops.append(("reweight", u, v, draw_weight()))
        batches.append(UpdateBatch(ops=tuple(ops)))
    return EdgeStream(num_vertices=n, batches=tuple(batches), seed=seed)


def from_coo_reference(u, v, w, num_vertices=None,
                       name="graph") -> CSRGraph:
    """``from_coo`` symmetrising with one sort of all ``2m`` keys."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if not (len(u) == len(v) == len(w)):
        raise GraphFormatError("COO arrays must have equal length")
    if len(u) and (u.min() < 0 or v.min() < 0):
        raise GraphFormatError("negative vertex id")
    if len(w) and not np.all((w > 0) & (w < np.inf)):
        raise GraphFormatError(
            "edge weights must be finite and strictly positive")
    n = int(max(u.max(initial=-1), v.max(initial=-1)) + 1) if len(u) else 0
    if num_vertices is not None:
        if num_vertices < n:
            raise GraphFormatError(
                f"num_vertices={num_vertices} smaller than max id + 1 ({n})"
            )
        n = num_vertices
    if len(u) == 0:
        return CSRGraph.empty(n, name)
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    w = w[keep]
    if len(lo) == 0:
        return CSRGraph.empty(n, name)
    key = lo * np.int64(n) + hi
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    w = np.maximum.reduceat(w[order], first)
    lo, hi = lo[order[first]], hi[order[first]]
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.argsort(src * np.int64(n) + dst)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst[order], np.concatenate([w, w])[order], name)


def assign_uniform_weights_reference(graph: CSRGraph, seed: int = 0,
                                     decimals: int = 3) -> CSRGraph:
    """``assign_uniform_weights`` through ``np.unique`` over every
    entry's canonical edge id."""
    if graph.num_directed_edges == 0:
        return graph
    eids = graph.canonical_edge_ids()
    uniq, inverse = np.unique(eids, return_inverse=True)
    rng = np.random.default_rng(seed)
    levels = 10**decimals
    per_edge = rng.integers(1, levels + 1, size=len(uniq)).astype(np.float64)
    per_edge /= levels
    return graph.reweighted(per_edge[inverse])


def _descending_rank_reference(w, dtype):
    p = np.argsort(w)
    ws = w[p]
    step = np.zeros(len(w), dtype)
    np.not_equal(ws[1:], ws[:-1], out=step[1:])
    np.cumsum(step, out=step)
    top = int(step[-1]) if len(step) else 0
    rank = np.empty_like(step)
    rank[p] = top - step
    return rank, top


def _stable_by_reference(order, key, top):
    shift = 0
    while True:
        digit = (key[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
        if top >> shift <= 0:
            return order


def build_layout_reference(g: CSRGraph) -> tuple[np.ndarray, ...]:
    """``CSRGraph._build_layout`` with ``int64`` row ids, every
    temporary held to the end."""
    n, m2 = g.num_vertices, len(g.indices)
    row_ids = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    upper = row_ids < g.indices
    pos_dtype = np.int32 if m2 < 2**31 else np.int64
    id_dtype = np.int32 if n < 2**31 else np.int64
    ne = int(np.count_nonzero(upper))
    rows, edges = np.empty(m2, pos_dtype), np.empty(ne, pos_dtype)
    nbrs = np.empty(m2, id_dtype)
    eu, ev = np.empty(ne, id_dtype), np.empty(ne, id_dtype)
    if g._rows_ascending():
        order = _stable_by_reference(
            np.arange(m2 - 1, -1, -1, dtype=pos_dtype),
            *_descending_rank_reference(g.weights, pos_dtype))
    else:
        order = np.lexsort((-g._build_eids(), -g.weights))
    edges[:] = order[upper[order]]
    eu[:] = row_ids[edges]
    ev[:] = g.indices[edges]
    rows[:] = _stable_by_reference(order, row_ids, n - 1)
    nbrs[:] = g.indices[rows]
    return rows, edges, nbrs, eu, ev


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    assert got.num_vertices == want.num_vertices
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.weights, want.weights)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def assert_same_arrays(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def docs(stream: EdgeStream) -> list[dict]:
    return [b.to_doc() for b in stream.batches]


# ------------------------------------------------------------------ #
# generator
# ------------------------------------------------------------------ #
@st.composite
def dense_graphs(draw) -> CSRGraph:
    """Tiny graphs with most pairs present: inserts miss 32 times and
    fall back to reweights."""
    n = draw(st.integers(2, 5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=len(pairs),
                      max_size=len(pairs)))
    return build_graph(n, [(a, b, x) for (a, b), k, x
                           in zip(pairs, keep, w) if k])


class TestGenerateOracle:
    @given(g=st.one_of(random_graphs(), dense_graphs()),
           num_batches=st.integers(0, 12),
           batch_size=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([(0.55, 0.25), (0.0, 1.0), (1.0, 0.0),
                              (0.0, 0.0), (0.1, 0.85), (0.3, 0.3)]))
    def test_equals_reference(self, g, num_batches, batch_size, seed, p):
        kw = dict(num_batches=num_batches, batch_size=batch_size,
                  seed=seed, p_insert=p[0], p_delete=p[1])
        got = EdgeStream.generate(g, **kw)
        want = generate_reference(g, **kw)
        assert docs(got) == docs(want)
        assert got.num_vertices == want.num_vertices
        assert got.seed == want.seed

    def test_live_set_empties_then_refills(self):
        # Deletes only until nothing is live, then inserts only.
        g = build_graph(4, [(0, 1, 0.5), (2, 3, 0.25), (1, 2, 0.75)])
        for p in ((0.0, 1.0), (1.0, 0.0), (0.2, 0.8)):
            kw = dict(num_batches=4, batch_size=5, seed=11,
                      p_insert=p[0], p_delete=p[1])
            assert docs(EdgeStream.generate(g, **kw)) \
                == docs(generate_reference(g, **kw))

    def test_complete_graph_falls_back_to_reweights(self):
        g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)])
        s = EdgeStream.generate(g, num_batches=3, batch_size=4, seed=5,
                                p_insert=1.0, p_delete=0.0)
        assert {op[0] for b in s for op in b.ops} == {"reweight"}
        assert docs(s) == docs(generate_reference(
            g, num_batches=3, batch_size=4, seed=5, p_insert=1.0,
            p_delete=0.0))

    def test_zero_batches(self, medium_graph):
        assert EdgeStream.generate(medium_graph, num_batches=0).batches == ()

    def test_medium_graph_long_stream(self, medium_graph):
        kw = dict(num_batches=60, batch_size=64, seed=7)
        assert docs(EdgeStream.generate(medium_graph, **kw)) \
            == docs(generate_reference(medium_graph, **kw))

    def test_peak_memory_per_base_edge(self):
        g = rmat_graph(14, 8, seed=3, name="rmat14")
        m = g.num_edges
        assert m > 90_000
        g.degrees  # a memo of the graph, not of the generator
        tracemalloc.start()
        try:
            EdgeStream.generate(g, num_batches=4, batch_size=64, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m < 64, f"{peak / m:.1f} B per base edge"


# ------------------------------------------------------------------ #
# snapshots
# ------------------------------------------------------------------ #
@st.composite
def coo_inputs(draw):
    """COO with duplicates in both orientations and different weights,
    self-loops, isolated vertices and spare ids past the largest one."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 40))
    ids = st.integers(0, n - 1)
    u = draw(st.lists(ids, min_size=k, max_size=k))
    v = draw(st.lists(ids, min_size=k, max_size=k))
    w = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0])
                      | st.floats(0.001, 10.0), min_size=k, max_size=k))
    # Repeat some entries, half of them flipped.
    rep = draw(st.lists(st.tuples(st.integers(0, max(k - 1, 0)),
                                  st.booleans(), st.floats(0.001, 10.0)),
                        max_size=k))
    for i, flip, x in rep:
        a, b = u[i], v[i]
        u.append(b if flip else a)
        v.append(a if flip else b)
        w.append(x)
    spare = draw(st.sampled_from([None, 0, 3]))
    num_vertices = None if spare is None else n + spare
    return (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
            np.array(w, dtype=np.float64), num_vertices)


class TestFromCooOracle:
    @given(coo=coo_inputs())
    def test_equals_reference(self, coo):
        u, v, w, nv = coo
        assert_same_csr(from_coo(u, v, w, num_vertices=nv),
                        from_coo_reference(u, v, w, num_vertices=nv))

    @pytest.mark.parametrize("nv", [None, 0, 5])
    def test_empty_input(self, nv):
        e = np.empty(0, dtype=np.int64)
        assert_same_csr(from_coo(e, e, np.empty(0), num_vertices=nv),
                        from_coo_reference(e, e, np.empty(0),
                                           num_vertices=nv))

    def test_only_self_loops(self):
        u = np.array([1, 2, 2])
        got = from_coo(u, u, np.ones(3), num_vertices=4)
        assert_same_csr(got, from_coo_reference(u, u, np.ones(3),
                                                num_vertices=4))

    def test_dtypes_of_list_input(self):
        got = from_coo([0, 2, 1], [1, 1, 0], [1, 2, 3])
        assert_same_csr(got, from_coo_reference([0, 2, 1], [1, 1, 0],
                                                [1, 2, 3]))

    def test_medium_graph(self, medium_graph):
        u, v, w = medium_graph.edge_array()
        p = np.random.default_rng(0).permutation(len(u))
        half = p[: len(p) // 2]
        # Shuffled, with half the edges repeated flipped and lighter.
        uu = np.concatenate([u[p], v[half]])
        vv = np.concatenate([v[p], u[half]])
        ww = np.concatenate([w[p], w[half] / 2])
        n = medium_graph.num_vertices
        got = from_coo(uu, vv, ww, num_vertices=n)
        assert_same_csr(got, from_coo_reference(uu, vv, ww, num_vertices=n))
        assert_same_csr(got, medium_graph)


class TestOverlaySnapshot:
    @given(g=random_graphs(max_vertices=12, max_edges=40),
           data=st.data())
    def test_to_csr_equals_from_coo_of_edges(self, g, data):
        ov = OverlayGraph(g)
        n = g.num_vertices
        u, v, _ = g.edge_array()
        present = set(zip(u.tolist(), v.tolist()))
        ids = st.integers(0, n - 1)
        for _ in range(data.draw(st.integers(1, 5))):
            ops = []
            for _ in range(data.draw(st.integers(0, 8))):
                a, b = sorted((data.draw(ids), data.draw(ids)))
                if a == b:
                    continue
                w = data.draw(st.floats(0.001, 1.0))
                if (a, b) not in present:
                    kind = "insert"
                    present.add((a, b))
                else:
                    kind = data.draw(st.sampled_from(["delete",
                                                      "reweight"]))
                    if kind == "delete":
                        present.remove((a, b))
                        w = None
                # Either orientation names the edge.
                ops.append((kind, *data.draw(st.permutations((a, b))), w))
            ov.apply_batch(ops)
            snap = ov.to_csr()
            assert_same_csr(snap, from_coo_reference(
                *ov.edges(), num_vertices=n))
            snap.validate()
        u, v, w = ov.edges()
        assert set(zip(u.tolist(), v.tolist())) == present
        keys = u * n + v
        assert np.all(keys[1:] > keys[:-1])
        assert len(u) == ov.num_edges

    def test_deleted_base_edge_inserted_again(self):
        g = build_graph(5, [(0, 1, 0.5), (1, 2, 0.25), (3, 4, 0.75),
                            (0, 4, 0.125)])
        ov = OverlayGraph(g)
        ov.apply_batch([("reweight", 1, 2, 0.9), ("delete", 0, 1, None),
                        ("insert", 2, 4, 0.3)])
        ov.apply_batch([("insert", 1, 0, 0.6), ("delete", 4, 3, None)])
        ov.apply_batch([("insert", 3, 4, 0.2), ("delete", 2, 4, None)])
        u, v, w = ov.edges()
        assert list(zip(u.tolist(), v.tolist(), w.tolist())) == [
            (0, 1, 0.6), (0, 4, 0.125), (1, 2, 0.9), (3, 4, 0.2)]
        assert_same_csr(ov.to_csr(), from_coo_reference(u, v, w,
                                                        num_vertices=5))

    def test_generated_stream_on_medium_graph(self, medium_graph):
        ov = OverlayGraph(medium_graph)
        for batch in EdgeStream.generate(medium_graph, num_batches=30,
                                         batch_size=64, seed=4):
            ov.apply_batch(batch.ops)
        assert_same_csr(ov.to_csr(), from_coo_reference(
            *ov.edges(), num_vertices=medium_graph.num_vertices))


class TestDescendingRows:
    """A CSR base whose rows list neighbours in descending order has
    its edge keys out of order; both searchsorted indexes must sort
    them."""

    def test_stream_and_snapshot_match_ascending_base(self, medium_graph):
        from test_layout_memo import reversed_rows

        g = reversed_rows(medium_graph)
        assert not g._rows_ascending()
        kw = dict(num_batches=20, batch_size=64, seed=9)
        stream = EdgeStream.generate(g, **kw)
        assert docs(stream) == docs(generate_reference(g, **kw))
        ov, ref = OverlayGraph(g), OverlayGraph(medium_graph)
        for batch in stream:
            ov.apply_batch(batch.ops)
            ref.apply_batch(batch.ops)
        assert_same_csr(ov.to_csr(), ref.to_csr())
        for a, b in zip(ov.edges(), ref.edges()):
            np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------ #
# weights and layout
# ------------------------------------------------------------------ #
def shuffled_rows(g: CSRGraph, seed: int) -> CSRGraph:
    """The same graph with every row's entries in a random order."""
    rows = np.repeat(np.arange(g.num_vertices), g.degrees)
    key = np.random.default_rng(seed).random(len(rows))
    pos = np.lexsort((key, rows))
    return CSRGraph(g.indptr, g.indices[pos], g.weights[pos], g.name)


def row_variant(g: CSRGraph, kind: str) -> CSRGraph:
    """``g`` with ascending (as built), reversed or shuffled rows."""
    from test_layout_memo import reversed_rows

    if kind == "reversed":
        return reversed_rows(g)
    if kind == "shuffled":
        return shuffled_rows(g, seed=g.num_directed_edges)
    return g


def fresh(g: CSRGraph) -> CSRGraph:
    """The same arrays without any memo of ``g``."""
    return CSRGraph(g.indptr, g.indices, g.weights, g.name)


ROWS = st.sampled_from(["ascending", "reversed", "shuffled"])


class TestWeightsOracle:
    @given(coo=coo_inputs(), rows=ROWS, seed=st.integers(0, 2**32 - 1))
    def test_equals_reference(self, coo, rows, seed):
        u, v, w, nv = coo
        g = row_variant(from_coo(u, v, w, num_vertices=nv), rows)
        got = assign_uniform_weights(g, seed=seed)
        assert_same_csr(got, assign_uniform_weights_reference(fresh(g),
                                                              seed=seed))
        assert g._canonical_eids is None  # nothing memoised on the input
        assert got.indices is g.indices and got.indptr is g.indptr

    @pytest.mark.parametrize("rows", ["ascending", "reversed"])
    @pytest.mark.parametrize("decimals", [1, 3, 6])
    def test_medium_graph(self, medium_graph, rows, decimals):
        g = row_variant(medium_graph, rows)
        assert g._rows_ascending() == (rows == "ascending")
        assert_same_csr(
            assign_uniform_weights(g, seed=7, decimals=decimals),
            assign_uniform_weights_reference(fresh(g), seed=7,
                                             decimals=decimals))

    def test_edgeless_graph_is_returned(self):
        g = CSRGraph.empty(4)
        assert assign_uniform_weights(g, seed=1) is g


class TestLayoutOracle:
    @given(coo=coo_inputs(), rows=ROWS)
    def test_equals_reference(self, coo, rows):
        u, v, w, nv = coo
        g = row_variant(from_coo(u, v, w, num_vertices=nv), rows)
        assert_same_arrays(g._build_layout(), build_layout_reference(g))

    @pytest.mark.parametrize("rows", ["ascending", "reversed"])
    def test_medium_graph(self, medium_graph, rows):
        g = row_variant(medium_graph, rows)
        assert_same_arrays(g._build_layout(), build_layout_reference(g))

    def test_two_radix_digits(self):
        # Over 2^16 distinct weights and vertices: both radix sorts
        # take a second 16-bit digit.
        rng = np.random.default_rng(3)
        n, k = 70_000, 80_000
        g = from_coo(rng.integers(0, n, k), rng.integers(0, n, k),
                     rng.random(k) + 0.5, num_vertices=n + 5)
        assert len(np.unique(g.weights)) > 2**16
        assert_same_arrays(g._build_layout(), build_layout_reference(g))


GENERATOR_MODULES = ("geometric", "kmer", "mesh", "mycielski", "powerlaw",
                     "rmat", "uniform", "webgraph")


@pytest.mark.parametrize("quality", [False, True], ids=["full", "quality"])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_build_equals_reference_path(name, quality, monkeypatch):
    """Every analog and quality instance, built by the generators over
    the oracle ``from_coo`` and weights, equals today's build, and so
    does its layout."""
    spec = DATASETS[name]
    build = spec.build_quality if quality else spec.build
    got = build()
    with monkeypatch.context() as m:
        for mod in GENERATOR_MODULES:
            mod = importlib.import_module(f"repro.graph.generators.{mod}")
            m.setattr(mod, "from_coo", from_coo_reference)
            if hasattr(mod, "assign_uniform_weights"):
                m.setattr(mod, "assign_uniform_weights",
                          assign_uniform_weights_reference)
        want = build()
    assert got.name == want.name
    assert_same_csr(got, want)
    if hasattr(want, "chain_bounds"):
        np.testing.assert_array_equal(got.chain_bounds, want.chain_bounds)
    assert_same_arrays(got._build_layout(), build_layout_reference(want))


class TestBuildMemory:
    """``tracemalloc`` peaks in bytes per directed entry of a 2^14-vertex
    RMAT graph (the arrays of the input graph are not counted).  The
    builders with every temporary held to the end peaked at 58.7
    (``from_coo``), 53.0 (weights) and 55.0 (layout)."""

    @pytest.fixture(scope="class")
    def rmat(self):
        g = rmat_graph(14, 8, seed=3, name="rmat14")
        g.degrees  # a memo of the graph, not of the build
        return g

    @staticmethod
    def per_entry(fn, g) -> float:
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / g.num_directed_edges

    def test_from_coo(self, rmat):
        u, v, w = rmat.edge_array()
        rng = np.random.default_rng(0)
        flip = rng.random(len(u)) < 0.5
        p = rng.permutation(len(u))
        uu, vv = np.where(flip, v, u)[p], np.where(flip, u, v)[p]
        ww = w[p]
        got = self.per_entry(
            lambda: from_coo(uu, vv, ww, num_vertices=rmat.num_vertices),
            rmat)
        assert got < 40, f"{got:.1f} B per directed entry"

    def test_weights(self, rmat):
        got = self.per_entry(lambda: assign_uniform_weights(rmat, seed=1),
                             rmat)
        assert got < 36, f"{got:.1f} B per directed entry"

    def test_layout(self, rmat):
        got = self.per_entry(rmat._build_layout, rmat)
        assert got < 46, f"{got:.1f} B per directed entry"
