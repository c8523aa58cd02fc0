"""networkx converters, kept for tests that check CSR graphs against
networkx as an independent oracle (matching, components, clustering).
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph


def from_networkx(nxg, weight: str = "weight",
                  name: str | None = None) -> CSRGraph:
    """Build from a networkx graph; missing weights default to 1.0."""
    nodes = list(nxg.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    u, v, w = [], [], []
    for a, b, data in nxg.edges(data=True):
        u.append(index[a])
        v.append(index[b])
        w.append(float(data.get(weight, 1.0)))
    return from_coo(
        np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        num_vertices=len(nodes),
        name=name or getattr(nxg, "name", "") or "graph",
    )


def to_networkx(graph: CSRGraph):
    """Export to a weighted ``networkx.Graph``."""
    import networkx as nx

    nxg = nx.Graph(name=graph.name)
    nxg.add_nodes_from(range(graph.num_vertices))
    u, v, w = graph.edge_array()
    nxg.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
    return nxg
