"""Weighted matching algorithms.

The paper's contribution (:func:`ld_gpu`) plus every algorithm it compares
against (LD-SEQ, the Suitor family, greedy, exact blossom and the cuGraph
analog), the matching-coreset drivers, and the registered batch-dynamic
scenario (:func:`~repro.streaming.scenario.dynamic_ld`).

Each algorithm registers an :class:`~repro.engine.spec.AlgorithmSpec`
next to its implementation, declaring its parameter needs and capability
tags — the single source of truth for dispatch.  Enumerate it with::

    from repro.engine import algorithm_specs
    for spec in algorithm_specs():
        print(spec.name, spec.capability_tags, spec.summary)

or ``repro-matching list algorithms`` on the command line (the README's
"Algorithm registry" table is the same listing).
"""

from repro.matching.types import MatchResult
from repro.matching.validate import (
    is_valid_matching,
    is_maximal_matching,
    matching_weight,
    verify_result,
)
from repro.matching.pointer_index import PointerIndex
from repro.matching.ld_seq import ld_seq
from repro.matching.ld_gpu import ld_gpu
from repro.matching.greedy import greedy_matching
from repro.matching.suitor import suitor_seq, suitor_omp_sim, suitor_gpu_sim
from repro.matching.blossom import blossom_mwm, maximum_weight_matching
from repro.matching.cugraph_sim import cugraph_mg_sim
from repro.matching.coreset import (
    coreset_greedy,
    coreset_ld,
    coreset_matching,
    coreset_shard,
    extract_shard,
    shard_assignments,
)
from repro.streaming.scenario import dynamic_ld

__all__ = [
    "MatchResult",
    "is_valid_matching",
    "is_maximal_matching",
    "matching_weight",
    "verify_result",
    "PointerIndex",
    "ld_seq",
    "ld_gpu",
    "greedy_matching",
    "suitor_seq",
    "suitor_omp_sim",
    "suitor_gpu_sim",
    "blossom_mwm",
    "maximum_weight_matching",
    "cugraph_mg_sim",
    "coreset_greedy",
    "coreset_ld",
    "coreset_matching",
    "coreset_shard",
    "extract_shard",
    "shard_assignments",
    "dynamic_ld",
]
