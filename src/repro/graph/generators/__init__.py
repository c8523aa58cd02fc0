"""Synthetic graph generators.

Each generator targets one structural class from the paper's Table I so the
benchmark harness can build scaled-down analogs of the fourteen evaluation
graphs (see DESIGN.md §2 for the mapping):

=================  ==========================================
module             paper graphs covered
=================  ==========================================
``rmat``           GAP-kron, AGATHA-2015, MOLIERE_2016
``uniform``        GAP-urand
``mycielski``      mycielskian18
``kmer``           kmer_U1a, kmer_V2a
``mesh``           Queen_4147, HV15R
``powerlaw``       com-Orkut, com-Friendster
``webgraph``       uk-2007-05, webbase-2001
``geometric``      mouse_gene
=================  ==========================================
"""

from repro.graph.generators.rmat import rmat_graph
from repro.graph.generators.uniform import uniform_random_graph
from repro.graph.generators.mycielski import mycielskian_graph
from repro.graph.generators.kmer import kmer_graph
from repro.graph.generators.mesh import queen_mesh, fem_mesh_3d
from repro.graph.generators.powerlaw import powerlaw_cluster_graph
from repro.graph.generators.webgraph import webcrawl_graph
from repro.graph.generators.geometric import similarity_graph
from repro.graph.generators.weights import assign_uniform_weights

__all__ = [
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
]
