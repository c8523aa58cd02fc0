"""Global-sort greedy ½-approximate matching.

The classical baseline (Avis '83): sort edges by decreasing weight, add an
edge whenever both endpoints are free.  With the same ``(w, eid)`` total
order the LD algorithms use for tie-breaking, greedy produces *exactly* the
same matching as LD-SEQ/LD-GPU, the Suitor variants and the cuGraph
analog — a theorem (locally dominant matchings under a total order are
unique) the test suite leans on as a cross-check.  Birn et al.'s
edge-centric LocalMax, which the theorem also covers, lives in the test
suite (``tests/local_max_oracle.py``) as an oracle that shares no code
with the sorted-row layout.

The global sort is what makes greedy unattractive on parallel hardware
(§II-B), but it is the simplest correct oracle for the concurrent variants.
The scan over the sorted edges runs as vectorised rounds over fixed-size
chunks of that order rather than one Python step per edge: within a
chunk, drop the edges with a matched endpoint, then accept every edge
that comes first in the chunk at both of its endpoints, until the chunk
is empty.  Each accepted edge is exactly one the sequential scan accepts
— every earlier edge at either endpoint was already decided, and none
was accepted — and the earliest remaining edge always qualifies.  When
a round decides under an eighth of the edges still open (a dependence
chain, such as a path with monotone weights), the rest of the chunk
goes to the sequential scan, so no input pays more than a few rounds
per chunk.
"""

from __future__ import annotations

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.graph.csr import CSRGraph
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matched_vertex_weight

__all__ = ["greedy_matching"]

#: Sorted edges per chunk of vectorised rounds.
_CHUNK = 1 << 14


def _scan(u: np.ndarray, v: np.ndarray, w: np.ndarray,
          mate: np.ndarray, mw: np.ndarray) -> None:
    """The sequential greedy step over sorted edges ``(u, v, w)``."""
    mate_v, mw_v = memoryview(mate), memoryview(mw)
    for a, b, x in zip(u.tolist(), v.tolist(), w.tolist()):
        if mate_v[a] == UNMATCHED and mate_v[b] == UNMATCHED:
            mate_v[a], mate_v[b] = b, a
            mw_v[a] = mw_v[b] = x


def greedy_matching(graph: CSRGraph) -> MatchResult:
    """Sort-based greedy matching under the ``(w, eid)`` total order."""
    n = graph.num_vertices
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    # Weights are gathered only for the edges greedy accepts (at most
    # n/2) and for a chunk's sequential tail: a random gather over all m
    # sorted positions costs milliseconds on the large analogs.
    u, v = graph.sorted_edge_endpoints()
    order, weights = graph.sorted_edge_order(), graph.weights
    mw = np.zeros(n)  # per matched vertex: its matched edge's weight
    first = np.empty(n, dtype=np.int64)  # per vertex: its first slot
    for lo in range(0, len(u), _CHUNK):
        rest = np.arange(lo, min(lo + _CHUNK, len(u)))
        live = None  # edges left after the previous round's drop step
        while len(rest):
            # The memo's endpoints are int32: NumPy indexes faster with
            # them widened once a round than it casts an int32 index.
            a, b = u[rest].astype(np.intp), v[rest].astype(np.intp)
            free = (mate[a] == UNMATCHED) & (mate[b] == UNMATCHED)
            rest, a, b = rest[free], a[free], b[free]
            if live is not None and (live - len(rest)) * 8 < live:
                # A dependence chain (e.g. a path with monotone weights)
                # decides only a few edges per round: finish the chunk
                # with the sequential scan.
                _scan(a, b, weights[order[rest]], mate, mw)
                break
            live = len(rest)
            slot = np.arange(live)
            first[a] = first[b] = live
            np.minimum.at(first, a, slot)
            np.minimum.at(first, b, slot)
            win = (first[a] == slot) & (first[b] == slot)
            mate[a[win]] = b[win]
            mate[b[win]] = a[win]
            mw[a[win]] = mw[b[win]] = weights[order[rest[win]]]
            rest = rest[~win]
    return MatchResult(
        mate=mate,
        weight=matched_vertex_weight(mate, mw),
        algorithm="greedy",
        iterations=0,
    )


register(AlgorithmSpec(
    name="greedy",
    fn=greedy_matching,
    summary="global-sort greedy",
    approx_ratio="1/2",
))
