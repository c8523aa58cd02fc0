"""Registry of the paper's fourteen evaluation graphs and their analogs.

Each entry records the paper's published properties (Table I, left) and a
generator recipe producing a scaled-down graph of the same structural
class.  ``load_dataset`` also returns the *memory-scaled* platforms: device
memory is shrunk by the same factor as the graph, so each analog needs
batching / multiple devices exactly where the original did.

Every dataset also has a ``quality_instance`` — a much smaller graph from
the same generator on which the O(n³) exact blossom solver (the LEMON
stand-in) is tractable; Table II runs on those.

Both loaders serve the graph, with its sorted layout, from the on-disk
:class:`~repro.harness.cache.GraphCache` when a snapshot made by the
same recipe exists, and build and snapshot it otherwise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    fem_mesh_3d,
    kmer_graph,
    mycielskian_graph,
    powerlaw_cluster_graph,
    queen_mesh,
    rmat_graph,
    similarity_graph,
    uniform_random_graph,
    webcrawl_graph,
)
from repro.gpusim.spec import (CPU_EPYC_7742_2S, CpuSpec, DGX_2, DGX_A100,
                              DGX_A100_PCIE, PlatformSpec)

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "PLATFORMS",
    "load_dataset",
    "scale_factor",
    "scaled_platform",
    "scaled_cpu",
    "small_datasets",
    "large_datasets",
    "quality_instance",
    "warm_graph_cache",
]

SMALL = "SMALL"
LARGE = "LARGE"


@dataclass(frozen=True)
class DatasetSpec:
    """One evaluation graph: paper facts + analog recipe."""

    name: str
    group: str  # SMALL (<=1B edges) or LARGE (>1B edges) in the paper
    paper_vertices: int
    paper_edges: int
    paper_dmax: int
    paper_davg: int
    build: Callable[[], CSRGraph] = field(repr=False)
    build_quality: Callable[[], CSRGraph] = field(repr=False)
    notes: str = ""


def _spec(name, group, pv, pe, dmax, davg, build, build_quality, notes=""):
    return DatasetSpec(name, group, pv, pe, dmax, davg, build,
                       build_quality, notes)


#: Table I's datasets, top to bottom.  Analogs target ~10⁵–10⁶ directed
#: adjacency entries; quality instances target ~10³ vertices.
DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        _spec(
            "AGATHA-2015", LARGE, 184_000_000, 5_800_000_000,
            12_600_000, 63,
            lambda: rmat_graph(15, 24, probs=(0.55, 0.2, 0.2, 0.05),
                               seed=101, name="AGATHA-2015"),
            lambda: rmat_graph(8, 12, probs=(0.55, 0.2, 0.2, 0.05),
                               seed=101, name="AGATHA-2015-q"),
            "biomedical hypothesis graph; extreme hub skew",
        ),
        _spec(
            "uk-2007-05", LARGE, 105_000_000, 3_300_000_000, 975_000, 62,
            lambda: webcrawl_graph(36_000, out_degree=16, seed=102,
                                   name="uk-2007-05"),
            lambda: webcrawl_graph(700, out_degree=8, seed=102,
                                   name="uk-2007-05-q"),
            "LAW web crawl; host-local + hub tail",
        ),
        _spec(
            "webbase-2001", LARGE, 30_000_000, 3_300_000_000,
            2_100_000, 220,
            lambda: webcrawl_graph(12_000, out_degree=44, copy_prob=0.6,
                                   seed=103, name="webbase-2001"),
            lambda: webcrawl_graph(500, out_degree=16, copy_prob=0.6,
                                   seed=103, name="webbase-2001-q"),
            "dense web crawl",
        ),
        _spec(
            "MOLIERE_2016", LARGE, 134_000_000, 2_100_000_000, 68, 32,
            lambda: powerlaw_cluster_graph(30_000, avg_degree=32.0,
                                           exponent=3.5, seed=104,
                                           name="MOLIERE_2016"),
            lambda: powerlaw_cluster_graph(900, avg_degree=12.0,
                                           exponent=3.5, seed=104,
                                           name="MOLIERE_2016-q"),
            "literature graph; mild tail (paper d_max only 68)",
        ),
        _spec(
            "GAP-urand", LARGE, 134_000_000, 2_100_000_000,
            1_500_000, 31,
            lambda: uniform_random_graph(32_768, 510_000, seed=105,
                                         name="GAP-urand"),
            lambda: uniform_random_graph(800, 6_000, seed=105,
                                         name="GAP-urand-q"),
            "uniform random; LD-GPU's best case (45x)",
        ),
        _spec(
            "GAP-kron", LARGE, 118_000_000, 1_900_000_000, 816_000, 17,
            lambda: rmat_graph(16, 8, seed=106, name="GAP-kron"),
            lambda: rmat_graph(9, 5, seed=106, name="GAP-kron-q"),
            "Graph500 Kronecker",
        ),
        _spec(
            "com-Friendster", LARGE, 65_000_000, 1_800_000_000, 5_000, 55,
            lambda: powerlaw_cluster_graph(24_000, avg_degree=42.0,
                                           exponent=2.5, seed=107,
                                           name="com-Friendster"),
            lambda: powerlaw_cluster_graph(800, avg_degree=14.0,
                                           exponent=2.5, seed=107,
                                           name="com-Friendster-q"),
            "social; the paper's ~2000-iteration tail case",
        ),
        _spec(
            "Queen_4147", SMALL, 4_000_000, 317_000_000, 81, 79,
            lambda: queen_mesh(80, radius=4, seed=108, name="Queen_4147"),
            lambda: queen_mesh(24, radius=3, seed=108,
                               name="Queen_4147-q"),
            "3D FEM; regular degree (SR-GPU's best case)",
        ),
        _spec(
            "mycielskian18", SMALL, 196_000, 301_000_000, 98_000, 1530,
            lambda: mycielskian_graph(12, seed=109),
            lambda: mycielskian_graph(8, seed=109,
                                      name="mycielskian8-q"),
            "triangle-free, dense; occupancy outlier (Fig. 11)",
        ),
        _spec(
            "HV15R", SMALL, 2_000_000, 283_000_000, 484, 140,
            lambda: fem_mesh_3d(18, radius=2, seed=110, name="HV15R"),
            lambda: fem_mesh_3d(8, radius=2, seed=110, name="HV15R-q"),
            "CFD matrix; near-regular",
        ),
        _spec(
            "com-Orkut", SMALL, 3_000_000, 234_000_000, 33_000, 76,
            lambda: powerlaw_cluster_graph(7_000, avg_degree=70.0,
                                           exponent=2.2, seed=111,
                                           name="com-Orkut"),
            lambda: powerlaw_cluster_graph(600, avg_degree=16.0,
                                           exponent=2.2, seed=111,
                                           name="com-Orkut-q"),
            "social; heavy hub tail",
        ),
        _spec(
            "kmer_U1a", SMALL, 68_000_000, 139_000_000, 70, 4,
            lambda: kmer_graph(70_000, avg_degree=4.0, seed=112,
                               name="kmer_U1a"),
            lambda: kmer_graph(1_400, avg_degree=4.0, seed=112,
                               name="kmer_U1a-q"),
            "GenBank k-mer; batching study graph (Figs. 6-7)",
        ),
        _spec(
            "kmer_V2a", SMALL, 55_000_000, 117_000_000, 30, 2,
            lambda: kmer_graph(80_000, avg_degree=2.2, seed=113,
                               name="kmer_V2a"),
            lambda: kmer_graph(1_600, avg_degree=2.2, seed=113,
                               name="kmer_V2a-q"),
            "near-pure paths",
        ),
        _spec(
            "mouse_gene", SMALL, 45_000, 28_000_000, 8_000, 642,
            lambda: similarity_graph(2_500, avg_degree=56.0, seed=114,
                                     name="mouse_gene"),
            lambda: similarity_graph(500, avg_degree=24.0, seed=114,
                                     name="mouse_gene-q"),
            "gene coexpression; natural weights; smallest input",
        ),
    ]
}


@lru_cache(maxsize=32)
def load_dataset(name: str) -> CSRGraph:
    """The analog graph for a Table I dataset (memoised; see
    :func:`_serve` for the disk cache)."""
    if name not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; known: {sorted(DATASETS)}"
        )
    return _serve(name, quality=False)


@lru_cache(maxsize=32)
def quality_instance(name: str) -> CSRGraph:
    """The blossom-tractable quality instance for a dataset."""
    if name not in DATASETS:
        raise KeyError(name)
    return _serve(name, quality=True)


def _serve(name: str, quality: bool) -> CSRGraph:
    """Dataset ``name``'s graph through its recipe reference in the
    :class:`~repro.harness.cache.GraphCache`
    (:meth:`~repro.harness.cache.GraphCache.get_recipe`), or straight
    from its build when ``REPRO_GRAPH_CACHE`` is off."""
    from repro.harness.cache import GraphCache, cache_disabled

    spec = DATASETS[name]
    build = spec.build_quality if quality else spec.build
    if cache_disabled():
        return build()
    return GraphCache().get_recipe(_recipe_key(name, quality, build), build)


def _recipe_key(name: str, quality: bool, build: Callable) -> str:
    """The recipe reference key of a dataset's graph: a hash over the
    dataset name and quality flag, the bytecode, names and constants of
    its ``build`` function, the source of ``repro/graph/`` and of this
    module, and the NumPy version.  The source covers every spec in
    :data:`DATASETS`; the function's code covers a spec replaced at run
    time under the same name.  Not covered: the objects the function's
    global names resolve to when called, its defaults and its closure."""
    code = build.__code__
    h = hashlib.sha256(_source_digest())
    h.update(repr((name, quality, code.co_code, code.co_names,
                   code.co_consts)).encode())
    return f"{name}{'-q' if quality else ''}-{h.hexdigest()[:32]}"


@lru_cache(maxsize=1)
def _source_digest() -> bytes:
    """Digest of the graph code's source and the NumPy version."""
    pkg = Path(__file__).resolve().parent.parent
    h = hashlib.sha256(np.__version__.encode())
    for path in sorted((pkg / "graph").rglob("*.py")) + \
            [Path(__file__).resolve()]:
        h.update(path.relative_to(pkg).as_posix().encode())
        h.update(path.read_bytes())
    return h.digest()


def scale_factor(name: str, graph: CSRGraph | None = None) -> float:
    """(analog directed edges) / (paper directed edges) for a dataset."""
    spec = DATASETS[name]
    g = graph if graph is not None else load_dataset(name)
    return g.num_directed_edges / (2 * spec.paper_edges)


def scaled_platform(name: str, platform: PlatformSpec = DGX_A100,
                    graph: CSRGraph | None = None) -> PlatformSpec:
    """Platform shrunk by the analog's scale factor.

    Device memory *and* every bandwidth are multiplied by
    (analog directed edges) / (paper directed edges); latencies stay real.
    Two consequences: (i) the edges-to-device-memory ratio — which decides
    how many devices a partition needs and whether batching kicks in —
    matches the paper's runs of the original graph, and (ii) the analog
    operates in the same bandwidth-versus-latency regime, so modeled times
    land near the paper's absolute seconds.

    Occupancy capacity is scaled by the *vertex* ratio instead, so the
    frontier under-fills the simulated device at the same fraction of the
    run as the original would (Fig. 11).
    """
    spec = DATASETS[name]
    g = graph if graph is not None else load_dataset(name)
    plat = platform.scaled(scale_factor(name, g))
    vfactor = g.num_vertices / spec.paper_vertices
    device = plat.device.with_occupancy_capacity(
        max(platform.device.hw_warps * vfactor, 1.0)
    )
    return replace(plat, device=device)


def scaled_cpu(name: str, cpu: CpuSpec = CPU_EPYC_7742_2S,
               graph: CSRGraph | None = None) -> CpuSpec:
    """The SR-OMP host model shrunk by the same factor (see
    :func:`scaled_platform`)."""
    return cpu.scaled(scale_factor(name, graph))


def warm_graph_cache(names=None, quality: bool = False, cache=None):
    """Pre-stage dataset analogs into the on-disk graph cache.

    Loads each named dataset (default: all of Table I) through the
    memoised loaders, which snapshot it, with its sorted layout, into
    the default :class:`~repro.harness.cache.GraphCache` and write its
    recipe reference; ``cache``, if given, gets a snapshot too.  A
    later ``load_dataset`` — in a worker, another process or a later
    session — then reads the snapshot instead of generating the graph
    and sorting its layout, as long as its recipe key is unchanged.
    Returns the cache used.
    """
    from repro.harness.cache import GraphCache

    if cache is None:
        cache = GraphCache()
    for name in (names if names is not None else list(DATASETS)):
        g = quality_instance(name) if quality else load_dataset(name)
        cache.store(g)
    return cache


def small_datasets() -> list[str]:
    """Names of the SMALL group, in Table I order."""
    return [s.name for s in DATASETS.values() if s.group == SMALL]


def large_datasets() -> list[str]:
    """Names of the LARGE group, in Table I order."""
    return [s.name for s in DATASETS.values() if s.group == LARGE]


#: Platforms of the paper, re-exported for harness callers (the CLI's
#: ``--platform`` choices come from here).
PLATFORMS: dict[str, PlatformSpec] = {
    "DGX-A100": DGX_A100,
    "DGX-2": DGX_2,
    "DGX-A100-PCIe": DGX_A100_PCIE,
}
