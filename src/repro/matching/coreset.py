"""Shard-parallel matching via randomized composable coresets.

Implements the 2-round scheme of Assadi–Bateni–Mirrokni (PAPERS.md,
arXiv:1906.01993) for graphs that exceed a single worker's memory:

1. **Partition** — every undirected edge is assigned to one of ``k``
   shards by a seeded keyed hash of its canonical edge id
   (:func:`shard_assignments`).  The assignment is a pure function of
   ``(seed, edge id, k)`` — deterministic across processes, platforms
   and Python versions — so shards can be extracted independently on
   ``k`` machines without any coordination.
2. **Coreset round** — each shard computes a matching of *its edges
   only* with a registered base algorithm (greedy or LD); that matching
   (≤ ``n/2`` edges) is the shard's *composable coreset*.  Shards run
   as ordinary grid cells (algorithm ``coreset_shard``) through
   :func:`~repro.engine.cells.run_cells`, so they inherit the whole
   execution substrate: ``parallel=N`` process fan-out with shared-
   memory graph staging, and — with ``store=`` — the PR-8 worker fleet
   draining shard cells from a shared run store.
3. **Merge round** — the coordinator unions the ``k`` coresets
   (disjoint edge sets, global vertex ids) into a graph of at most
   ``k·n/2`` edges and runs the base algorithm once more on the union.

Quality: with greedy/LD (½-approximate) shard matchings the merged
matching is a constant-factor approximation of the maximum weight
matching (ABM'19 prove 3/8 for the greedy instantiation); the ``coreset``
bench suite and test suite measure the ratio against blossom on
tractable instances.  Memory: no participant ever holds more than its
shard (reported as ``peak_shard_edges``) or the coreset union
(``merge_edges``) — the MPC memory-per-machine discipline of the
Ghaffari–Uitto notes (SNIPPETS.md, snippet 3), made measurable.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.graph.csr import CSRGraph
from repro.matching.types import MatchResult
from repro.telemetry.spans import count

__all__ = [
    "shard_assignments",
    "edge_subgraph",
    "extract_shard",
    "coreset_shard",
    "coreset_matching",
    "coreset_greedy",
    "coreset_ld",
    "CORESET_BASES",
]

#: Base (per-shard and merge-round) algorithms a coreset run may use.
CORESET_BASES = ("greedy", "ld")

_SHARDS_COUNTER = "repro_coreset_shards_total"
_MERGE_COUNTER = "repro_coreset_merge_edges_total"

# splitmix64 finalizer constants (Steele et al.) — fixed-width uint64
# arithmetic, identical on every platform numpy supports.
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


def _shard_key(seed: int) -> tuple[np.uint64, np.uint64]:
    """Two 64-bit lanes of ``sha256("repro-coreset:<seed>")``.

    The *key* comes from sha256 — collision-resistant, stable across
    platforms — while the per-edge application below is a vectorised
    64-bit mixer, so assigning 10⁹ edges costs one numpy pass instead
    of 10⁹ hashlib calls.
    """
    digest = hashlib.sha256(f"repro-coreset:{seed}".encode()).digest()
    return (np.uint64(int.from_bytes(digest[:8], "big")),
            np.uint64(int.from_bytes(digest[8:16], "big")))


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= _MIX_M1
    x ^= x >> np.uint64(27)
    x *= _MIX_M2
    x ^= x >> np.uint64(31)
    return x


def shard_assignments(graph: CSRGraph, num_shards: int,
                      seed: int = 0) -> np.ndarray:
    """Shard id (``int64`` in ``[0, num_shards)``) per undirected edge.

    Aligned with :meth:`~repro.graph.csr.CSRGraph.edge_array` order.
    The assignment hashes the canonical edge id ``u·n + v`` under a
    sha256-derived key (:func:`_shard_key`), so it is a deterministic
    function of ``(seed, edge, num_shards)`` alone: the same edge lands
    on the same shard no matter which process — coordinator, pool
    worker or fleet worker — computes the partition.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    u, v, _ = graph.edge_array()
    eid = (u * np.int64(max(graph.num_vertices, 1)) + v).astype(np.uint64)
    k1, k2 = _shard_key(seed)
    with np.errstate(over="ignore"):
        h = _mix64(_mix64(eid ^ k1) ^ k2)
    return (h % np.uint64(num_shards)).astype(np.int64)


def edge_subgraph(
    graph: CSRGraph, edge_mask: np.ndarray, name: str | None = None
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph keeping exactly the masked undirected edges.

    ``edge_mask`` is boolean over the graph's undirected edge list in
    :meth:`~repro.graph.csr.CSRGraph.edge_array` order (length
    ``num_edges``).  The vertex set is preserved — ids stay global, so
    matchings computed on the subgraph are directly comparable (and
    mergeable) across subgraphs of the same parent.  Shard staging
    (:func:`extract_shard`) extracts through it.

    Returns ``(sub, eids)`` where ``eids[k]`` is the position *in the
    parent's* ``edge_array`` order of the subgraph's ``k``-th edge (also
    ``edge_array`` order) — the original-eid mapping that lets callers
    carry per-edge metadata across the extraction.
    """
    mask = np.asarray(edge_mask)
    if mask.dtype != np.bool_:
        raise ValueError("edge_mask must be a boolean array")
    u, v, w = graph.edge_array()
    if len(mask) != len(u):
        raise ValueError(
            f"edge_mask has {len(mask)} entries for a graph with "
            f"{len(u)} undirected edges"
        )
    n = graph.num_vertices
    sub_name = name if name is not None else f"{graph.name}-edgesub"
    eids = np.nonzero(mask)[0]
    lo, hi, ww = u[eids], v[eids], w[eids]
    # Parent edges are simple and already canonical (u < v), so the CSR
    # can be bucketed directly — no dedup pass, unlike from_coo.
    order = np.lexsort((hi, lo))
    lo, hi, ww, eids = lo[order], hi[order], ww[order], eids[order]
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    sw = np.concatenate([ww, ww])
    adj = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    sub = CSRGraph(indptr, dst[adj], sw[adj], sub_name)
    return sub, eids


def extract_shard(
    graph: CSRGraph, shard_index: int, num_shards: int, seed: int = 0
) -> tuple[CSRGraph, np.ndarray]:
    """One shard's subgraph (global vertex ids) + original-eid mapping.

    ``(sub, eids)`` as returned by :func:`edge_subgraph`; the union of the
    ``num_shards`` extractions is exactly the parent's edge set, each
    edge appearing in exactly one shard.
    """
    if not 0 <= shard_index < num_shards:
        raise ValueError(
            f"shard_index {shard_index} out of range for "
            f"{num_shards} shards")
    mask = shard_assignments(graph, num_shards, seed) == shard_index
    return edge_subgraph(
        graph, mask,
        name=f"{graph.name}-shard{shard_index}of{num_shards}")


def _base_fn(base: str):
    if base in ("greedy", "coreset_greedy"):
        from repro.matching.greedy import greedy_matching

        return greedy_matching
    if base in ("ld", "ld_seq", "coreset_ld"):
        from repro.matching.ld_seq import ld_seq

        return lambda g: ld_seq(g, collect_stats=False)
    raise ValueError(
        f"unknown coreset base {base!r}; have {CORESET_BASES}")


def coreset_shard(
    graph: CSRGraph,
    shard_index: int = 0,
    num_shards: int = 1,
    partition_seed: int = 0,
    base: str = "greedy",
) -> MatchResult:
    """Round 1 on one shard: extract, match, emit the coreset.

    Registered as algorithm ``coreset_shard`` so a shard is an ordinary
    grid cell — runnable serially, in a process pool, or claimed from a
    run store by a fleet worker.  The coreset (matched edges as
    parallel ``u``/``v``/``w`` arrays) and the shard's memory footprint
    travel in ``stats`` keys declared via ``record_stats``, which is
    what keeps a *store-served* shard record (no in-memory result)
    exactly as useful to the coordinator as a fresh one.
    """
    sub, _ = extract_shard(graph, shard_index, num_shards,
                           partition_seed)
    result = _base_fn(base)(sub)
    pairs = result.matched_pairs()
    cu, cv = pairs[:, 0], pairs[:, 1]
    # Vectorised weight lookup: the shard's edge_array is (u, v)-lex
    # sorted, so canonical eids are ascending and searchsorted finds
    # each matched pair's weight in O(log m).
    su, sv, sw = sub.edge_array()
    scale = np.int64(max(sub.num_vertices, 1))
    pos = np.searchsorted(su * scale + sv, cu * scale + cv)
    cw = sw[pos] if len(cu) else np.empty(0, dtype=np.float64)
    return MatchResult(
        mate=result.mate,
        weight=result.weight,
        algorithm="coreset_shard",
        iterations=result.iterations,
        stats={
            "config": {
                "shard_index": int(shard_index),
                "num_shards": int(num_shards),
                "partition_seed": int(partition_seed),
                "base": base,
            },
            "coreset_u": cu.tolist(),
            "coreset_v": cv.tolist(),
            "coreset_w": cw.tolist(),
            "shard_edges": int(sub.num_edges),
            "coreset_edges": int(len(cu)),
        },
    )


def _coreset_from_record(record: Any) -> dict[str, Any]:
    """The deterministic shard payload, identically shaped whether the
    record is fresh (``extra`` filled by the executor) or served back
    from a run store (``extra`` round-tripped through JSON)."""
    extra = record.extra or {}
    missing = [k for k in ("coreset_u", "coreset_v", "coreset_w",
                           "shard_edges") if k not in extra]
    if missing:
        raise RuntimeError(
            f"shard record for {record.graph!r} lacks coreset payload "
            f"keys {missing} (schema drift?)")
    return extra


def coreset_matching(
    graph: CSRGraph,
    num_shards: int = 4,
    base: str = "greedy",
    seed: int | None = None,
    shard_parallel: int = 0,
    store: Any = None,
    dataset: str | None = None,
    quality: bool = False,
) -> MatchResult:
    """Rounds 1+2: shard cells through ``run_cells``, merge, re-match.

    The result is a valid matching of ``graph`` that is maximal on the
    *coreset union* — not necessarily on the full graph (an edge kept
    by no shard's matching can join two free vertices).  ABM'19's
    guarantee is weight-relative, and that is what the bench suite
    gates.

    Parameters
    ----------
    num_shards:
        ``k`` — the simulated machine count.  Each shard holds
        ``~m/k`` edges (reported: ``peak_shard_edges``).
    base:
        Per-shard and merge-round matcher: ``"greedy"`` (global-sort
        greedy) or ``"ld"`` (:func:`~repro.matching.ld_seq.ld_seq`).
        Both resolve ties under the shared ``(w, eid)`` total order and
        select the same edge set (weights can differ in the last ulp
        from summation order); ``coreset_ld`` exists to exercise the LD
        pointing machinery per shard.
    seed:
        Partition seed (``None`` → 0).  Same seed + same ``num_shards``
        → the same shards, the same coresets, and a byte-identical
        record regardless of *how* the shards executed.
    shard_parallel:
        ``0`` runs shards serially in-process; ``N ≥ 1`` fans them out
        to ``N`` worker processes (the parent graph is staged once
        through the graph cache + shared-memory plane and each worker
        extracts its own shard from the zero-copy view).
    store:
        A run-store path/instance: shard cells are registered under
        their content fingerprints and an attached ``repro worker``
        fleet may claim them — the coordinator claims whatever the
        fleet doesn't and serves fleet-completed shards from the store.
        Execution mechanics (``shard_parallel``, ``store``) never enter
        the result, only *what* was computed does.
    dataset / quality:
        Registry name (+ quality flag) of ``graph`` when it has one.
        Optional for in-process runs; **required for fleet execution**,
        because a fleet worker rebuilds a shard cell from its stored
        config and needs a graph source that exists outside the
        coordinator process.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    _base_fn(base)  # validate early, before any cell runs
    from repro.engine.cells import Cell, run_cells

    pseed = int(seed) if seed is not None else 0
    overrides: dict[str, Any] = {
        "num_shards": int(num_shards),
        "partition_seed": pseed,
        "base": base,
    }
    cells = [
        Cell("coreset_shard", dataset=dataset, quality=quality,
             overrides={**overrides, "shard_index": i},
             label=f"coreset-shard-{i}/{num_shards}")
        for i in range(num_shards)
    ]
    records = run_cells(cells, graph=graph, parallel=shard_parallel,
                        store=store, on_error="raise")
    count(_SHARDS_COUNTER, num_shards,
          help="coreset shard cells executed")

    payloads = [_coreset_from_record(r) for r in records]
    mu = np.concatenate([np.asarray(p["coreset_u"], dtype=np.int64)
                         for p in payloads]) \
        if payloads else np.empty(0, dtype=np.int64)
    mv = np.concatenate([np.asarray(p["coreset_v"], dtype=np.int64)
                         for p in payloads]) \
        if payloads else np.empty(0, dtype=np.int64)
    mw = np.concatenate([np.asarray(p["coreset_w"], dtype=np.float64)
                         for p in payloads]) \
        if payloads else np.empty(0, dtype=np.float64)

    from repro.graph.builders import from_coo

    merged = from_coo(mu, mv, mw, num_vertices=graph.num_vertices,
                      name=f"{graph.name}-coreset-union")
    count(_MERGE_COUNTER, merged.num_edges,
          help="edges in merged coreset unions")
    final = _base_fn(base)(merged)

    shard_edges = [int(p["shard_edges"]) for p in payloads]
    name = "coreset_greedy" if base in ("greedy", "coreset_greedy") \
        else "coreset_ld"
    return MatchResult(
        mate=final.mate,
        weight=final.weight,
        algorithm=name,
        iterations=final.iterations,
        stats={
            # Execution mechanics (shard_parallel/store) deliberately
            # excluded: the echo describes the computation, and records
            # must not depend on how the shards were scheduled.
            "config": {
                "num_shards": int(num_shards),
                "base": base,
                "partition_seed": pseed,
            },
            "peak_shard_edges": max(shard_edges, default=0),
            "shard_edges": shard_edges,
            "coreset_edges": [int(p.get("coreset_edges",
                                        len(p["coreset_u"])))
                              for p in payloads],
            "merge_edges": int(merged.num_edges),
            "shard_weights": [float(r.weight) for r in records],
        },
    )


def coreset_greedy(
    graph: CSRGraph,
    num_shards: int = 4,
    seed: int | None = None,
    shard_parallel: int = 0,
    store: Any = None,
    dataset: str | None = None,
    quality: bool = False,
) -> MatchResult:
    """Composable-coreset matching with greedy shards (ABM'19 §3)."""
    return coreset_matching(
        graph, num_shards=num_shards, base="greedy", seed=seed,
        shard_parallel=shard_parallel, store=store, dataset=dataset,
        quality=quality)


def coreset_ld(
    graph: CSRGraph,
    num_shards: int = 4,
    seed: int | None = None,
    shard_parallel: int = 0,
    store: Any = None,
    dataset: str | None = None,
    quality: bool = False,
) -> MatchResult:
    """Composable-coreset matching with locally dominant shards."""
    return coreset_matching(
        graph, num_shards=num_shards, base="ld", seed=seed,
        shard_parallel=shard_parallel, store=store, dataset=dataset,
        quality=quality)


#: Stats keys every coordinator record must surface (store-safe).
_COORD_RECORD_STATS = (
    "peak_shard_edges", "shard_edges", "coreset_edges",
    "merge_edges", "shard_weights",
)

register(AlgorithmSpec(
    name="coreset_shard",
    fn=coreset_shard,
    summary="one coreset round-1 shard (internal to coreset_*)",
    approx_ratio="1/2",
    record_stats=("coreset_u", "coreset_v", "coreset_w",
                  "shard_edges", "coreset_edges"),
    tags=("coreset", "internal"),
))

register(AlgorithmSpec(
    name="coreset_greedy",
    fn=coreset_greedy,
    summary="2-round composable-coreset matching, greedy shards "
            "(Assadi et al.)",
    accepts_seed=True,
    approx_ratio="3/8",
    record_stats=_COORD_RECORD_STATS,
    tags=("coreset", "distributed"),
))

register(AlgorithmSpec(
    name="coreset_ld",
    fn=coreset_ld,
    summary="2-round composable-coreset matching, locally dominant "
            "shards",
    accepts_seed=True,
    approx_ratio="3/8",
    record_stats=_COORD_RECORD_STATS,
    tags=("coreset", "distributed"),
))
