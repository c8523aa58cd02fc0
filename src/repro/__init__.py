"""repro — multi-GPU locally dominant weighted graph matching.

A complete, simulator-backed reproduction of *"Efficient Weighted Graph
Matching on GPUs"* (Mandulak, Ghosh, Ferdous, Halappanavar, Slota —
SC 2024): the LD-GPU multi-GPU ½-approximate matching algorithm with
edge-balanced partitioning, batched dual-buffer streaming and NCCL-style
collectives, plus every baseline the paper evaluates against (Suitor
CPU/GPU, exact blossom, greedy, cuGraph-style MG).

Quick start::

    from repro import rmat_graph, ld_gpu, ld_seq

    g = rmat_graph(scale=14, edge_factor=8, seed=1)
    result = ld_gpu(g, num_devices=4)      # simulated DGX-A100
    print(result.summary())
    assert result.weight == ld_seq(g).weight   # Lemma III.1 in action

**The supported programmatic surface is** :mod:`repro.api` — job verbs
(``submit``/``status``/``result``/``cancel``/``query``) that work
identically against a local run store and a ``repro serve`` daemon
URL, plus synchronous ``run``/``sweep`` and an inline worker
``process``::

    import repro.api as api

    fp = api.submit("ld_gpu", dataset="GAP-kron", devices=4,
                    store="runs.db")       # or store="http://host:8787"
    api.process(store="runs.db")           # or run `repro worker`
    record = api.result(fp, store="runs.db", wait=True)

Everything re-exported here (graph constructors/generators, the
simulator specs, the matching algorithms, the engine's
``execute``/``RunContext``/``RunRecord``) is likewise public and
documented in ``docs/api.md``; names under any other module path are
implementation detail and may move between releases.
"""

from repro.graph import (
    CSRGraph,
    from_coo,
    from_edges,
    read_matrix_market,
    write_matrix_market,
)
from repro.graph.generators import (
    assign_uniform_weights,
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
from repro.gpusim import (
    A100,
    DGX_2,
    DGX_A100,
    DGX_A100_PCIE,
    V100,
    DeviceOOMError,
    DeviceSpec,
    PlatformSpec,
    Timeline,
)
from repro.graph import (
    connected_components,
    graph_stats,
)
from repro.matching import (
    MatchResult,
    blossom_mwm,
    cugraph_mg_sim,
    greedy_matching,
    is_maximal_matching,
    is_valid_matching,
    ld_gpu,
    ld_seq,
    matching_weight,
    maximum_weight_matching,
    suitor_gpu_sim,
    suitor_omp_sim,
    suitor_seq,
    verify_result,
)
from repro.metrics import mmeps, percent_below_optimal
from repro.engine import (
    AlgorithmSpec,
    RunContext,
    RunRecord,
    execute,
)
from repro import api

__version__ = "1.0.0"

__all__ = [
    # graph
    "CSRGraph",
    "from_edges",
    "from_coo",
    "read_matrix_market",
    "write_matrix_market",
    # generators
    "rmat_graph",
    "uniform_random_graph",
    "mycielskian_graph",
    "kmer_graph",
    "queen_mesh",
    "fem_mesh_3d",
    "powerlaw_cluster_graph",
    "webcrawl_graph",
    "similarity_graph",
    "assign_uniform_weights",
    # simulator
    "DeviceSpec",
    "PlatformSpec",
    "Timeline",
    "DeviceOOMError",
    "A100",
    "V100",
    "DGX_A100",
    "DGX_A100_PCIE",
    "DGX_2",
    # matching
    "MatchResult",
    "ld_seq",
    "ld_gpu",
    "suitor_seq",
    "suitor_omp_sim",
    "suitor_gpu_sim",
    "greedy_matching",
    "blossom_mwm",
    "maximum_weight_matching",
    "cugraph_mg_sim",
    "is_valid_matching",
    "is_maximal_matching",
    "matching_weight",
    "verify_result",
    # graph analysis
    "graph_stats",
    "connected_components",
    # metrics
    "mmeps",
    "percent_below_optimal",
    # engine
    "AlgorithmSpec",
    "RunContext",
    "RunRecord",
    "execute",
    # the stable programmatic surface (job verbs + run/sweep/process)
    "api",
    "__version__",
]
