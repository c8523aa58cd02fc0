"""Graph substrate: CSR storage, builders, generators, and I/O.

The paper stores graphs in Compressed Sparse Row (CSR) format with 64-bit
edge indices and separate vertex / edge / value arrays (§III-A).  This
subpackage provides that representation (:class:`~repro.graph.csr.CSRGraph`),
constructors from common formats, Matrix Market I/O, and synthetic generators
standing in for the paper's fourteen SuiteSparse / LAW datasets.
"""

from repro.graph.csr import CSRGraph
from repro.graph.builders import (
    from_edges,
    from_coo,
)
from repro.graph.io import read_matrix_market, write_matrix_market
from repro.graph.stats import (
    GraphStats,
    graph_stats,
    connected_components,
)

__all__ = [
    "CSRGraph",
    "from_edges",
    "from_coo",
    "read_matrix_market",
    "write_matrix_market",
    "GraphStats",
    "graph_stats",
    "connected_components",
]
