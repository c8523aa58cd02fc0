"""LD-MultiNode — the distributed extension of LD-GPU.

The paper's conclusion flags "sustainable strong scalability on the next
generation of HPC platforms" for distributed matching as open work.  This
module takes the obvious first step: run the *same* LD-GPU algorithm over
several dense-GPU nodes, replacing the single NCCL ring with NCCL's
multi-node tree-of-rings (hierarchical intra-node NVLink reduce +
inter-node InfiniBand ring + intra-node broadcast).

Everything else — edge-balanced contiguous partitioning across the
cluster's GPUs, batching per device, the two phase kernels, the
termination rule — is inherited unchanged from :func:`ld_gpu`, so the
matching remains bit-identical to LD-SEQ at any cluster shape (the
Lemma III.1 argument only needs a correct global MAX reduction, which the
hierarchical collective provides; only its modeled time differs from the
single-node ring).
"""

from __future__ import annotations

from repro.comm.collectives import hierarchical_allreduce_time
from repro.gpusim.cluster import (
    DGX_A100_SUPERPOD,
    ClusterSpec,
    emit_cluster_shape,
)
from repro.graph.csr import CSRGraph
from repro.matching.ld_gpu import ld_gpu
from repro.matching.types import MatchResult
from repro.telemetry.spans import observe

__all__ = ["ld_multinode"]


def ld_multinode(
    graph: CSRGraph,
    cluster: ClusterSpec = DGX_A100_SUPERPOD,
    num_nodes: int | None = None,
    devices_per_node: int | None = None,
    **ld_kwargs,
) -> MatchResult:
    """Run LD-GPU across ``num_nodes × devices_per_node`` GPUs.

    Parameters
    ----------
    cluster:
        Hardware description (node platform + inter-node fabric).
    num_nodes / devices_per_node:
        Cluster slice to use; default the whole cluster with every GPU
        per node.
    ld_kwargs:
        Forwarded to :func:`ld_gpu` (``num_batches``, ``partition``,
        ``collect_stats``, ...).

    Returns a :class:`MatchResult` whose ``stats`` additionally records
    the cluster shape.
    """
    nodes = num_nodes if num_nodes is not None else cluster.num_nodes
    dpn = devices_per_node if devices_per_node is not None \
        else cluster.node.max_devices
    if not 1 <= nodes <= cluster.num_nodes:
        raise ValueError(
            f"num_nodes must be in [1, {cluster.num_nodes}]"
        )
    platform = cluster.flat_platform(dpn)
    emit_cluster_shape(cluster, nodes, dpn)

    def allreduce(nbytes):
        return hierarchical_allreduce_time(
            nbytes, nodes, dpn, cluster.node.gpu_link, cluster.inter_node
        )

    result = ld_gpu(
        graph,
        platform,
        num_devices=nodes * dpn,
        allreduce=allreduce if nodes > 1 else None,
        **ld_kwargs,
    )
    if nodes > 1:
        # ld_gpu prices the two allreduces of a round (pointers, then
        # mate, both n int64 entries) once per run; the collective-level
        # distribution of the tree-of-rings, separate from the
        # component spans ld_gpu emits, still gets one observation per
        # collective.
        t = allreduce(graph.num_vertices * 8)
        for _ in range(2 * result.iterations):
            observe("repro_allreduce_seconds", t,
                    "Per-call hierarchical allreduce durations.",
                    scope="hierarchical", cluster=cluster.name)
    result.algorithm = "ld_multinode"
    result.stats["cluster"] = cluster.name
    result.stats["num_nodes"] = nodes
    result.stats["devices_per_node"] = dpn
    return result
