"""Graph distribution: device partitions and per-device batches.

Implements §III-A/§III-B of the paper: an edge-balanced *contiguous* vertex
partition across devices (each device receives every edge incident to its
vertices, so cut edges are replicated) and, within each device, contiguous
vertex "batches" balanced by edge count via binary search over the CSR
prefix sums.
"""

from repro.partition.vertex import (
    edge_balanced_partition,
    vertex_balanced_partition,
    partition_edge_counts,
)
from repro.partition.batch import plan_batches, auto_batch_count, BatchPlan

__all__ = [
    "edge_balanced_partition",
    "vertex_balanced_partition",
    "partition_edge_counts",
    "plan_batches",
    "auto_batch_count",
    "BatchPlan",
]
