"""Dynamic matching maintenance under edge insertions and deletions.

Streaming graph pipelines (the paper's motivation list includes
scheduling and resource allocation) rarely re-match from scratch: they
maintain a matching as the graph mutates.  :class:`DynamicMatcher` keeps
a *valid, maximal* matching across updates with local repairs:

* **insert(u, v, w)** — if the new edge beats the matched weight at both
  endpoints combined, switch to it (a short augmentation); otherwise try
  to match it greedily.
* **delete(u, v)** — if the edge was matched, unmatch it and greedily
  re-match both endpoints.

Each repair is O(deg(u) + deg(v)); quality can drift below the ½ bound
over adversarial update sequences, so the class tracks drift and exposes
:meth:`rebuild` (a fresh LD run) — the standard periodic-rebuild pattern.
The test suite checks validity and maximality after every operation and
measures drift against rebuilds.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph
from repro.graph.overlay import OverlayGraph
from repro.matching.ld_seq import ld_seq
from repro.matching.types import UNMATCHED
from repro.matching.validate import matching_weight

__all__ = ["DynamicMatcher"]


class DynamicMatcher:
    """Maintain a maximal matching over an edge-mutable graph.

    The graph is one :class:`~repro.graph.overlay.OverlayGraph`: repairs
    read a vertex's current row with ``row_arrays``, and the edge list,
    edge count and CSR snapshot come from the overlay.  An insert that
    grows the vertex set re-bases onto a larger snapshot (the overlay's
    vertex set is fixed); :meth:`rebuild` re-bases too.  Invalid updates
    raise before anything changes: ``ValueError`` for self-loops,
    negative ids and weights that are not positive and finite,
    ``KeyError`` for deleting an absent edge.
    """

    def __init__(self, graph: CSRGraph | None = None,
                 num_vertices: int | None = None):
        if graph is None:
            graph = CSRGraph.empty(int(num_vertices or 0))
        self._overlay = OverlayGraph(graph)
        self.mate = ld_seq(graph, collect_stats=False).mate.copy()
        self.updates = 0

    # -------------------------------------------------------------- #
    @property
    def num_vertices(self) -> int:
        return self._overlay.num_vertices

    @property
    def num_edges(self) -> int:
        return self._overlay.num_edges

    def has_edge(self, u: int, v: int) -> bool:
        """True if edge ``{u, v}`` is currently present."""
        n = self.num_vertices
        return u != v and 0 <= u < n and 0 <= v < n \
            and self._overlay.has_edge(u, v)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current undirected edge list ``(u, v, w)`` with ``u < v``,
        sorted lexicographically."""
        return self._overlay.edges()

    @property
    def weight(self) -> float:
        """Current matching weight: matched edges summed in ascending
        order of their lower endpoint, as
        :func:`~repro.matching.validate.matching_weight` sums them."""
        v = np.flatnonzero(np.arange(self.num_vertices) < self.mate)
        return float(self._overlay.edge_weights(v, self.mate[v]).sum())

    def to_graph(self, name: str = "dynamic") -> CSRGraph:
        """CSR snapshot of the current graph."""
        return self._overlay.to_csr(name=name)

    # -------------------------------------------------------------- #
    def _matched_weight_at(self, v: int) -> float:
        u = int(self.mate[v])
        return self._overlay.edge_weight(v, u) if u != UNMATCHED else 0.0

    def _unmatch(self, v: int) -> int:
        u = int(self.mate[v])
        if u != UNMATCHED:
            self.mate[v] = UNMATCHED
            self.mate[u] = UNMATCHED
        return u

    def _greedy_match(self, v: int) -> None:
        """Match ``v`` to its heaviest free neighbour, if any; weight
        ties go to the larger canonical edge id, which within one row
        is the larger neighbour id."""
        if self.mate[v] != UNMATCHED:
            return
        nbrs, ws = self._overlay.row_arrays(v)
        free = self.mate[nbrs] == UNMATCHED
        if not free.any():
            return
        nbrs, ws = nbrs[free], ws[free]
        u = int(nbrs[ws == ws.max()].max())
        self.mate[v] = u
        self.mate[u] = v

    # -------------------------------------------------------------- #
    def insert(self, u: int, v: int, w: float) -> None:
        """Insert (or re-weight) edge ``{u, v}`` and repair locally."""
        overlay = self._overlay
        n = max(u, v) + 1
        if n > overlay.num_vertices:
            eu, ev, ew = overlay.edges()
            overlay = OverlayGraph(from_coo(eu, ev, ew, num_vertices=n))
        # The overlay validates the update; nothing is kept if it raises.
        if overlay.has_edge(u, v):
            overlay.reweight(u, v, w)
        else:
            overlay.insert(u, v, w)
        if overlay is not self._overlay:
            grown = np.full(n - len(self.mate), UNMATCHED, dtype=np.int64)
            self.mate = np.concatenate([self.mate, grown])
            self._overlay = overlay
        self.updates += 1

        if self.mate[u] == v:
            return  # already matched through this edge (re-weight)
        # Switch when the new edge outweighs what it displaces.
        displaced = self._matched_weight_at(u) + self._matched_weight_at(v)
        if w > displaced:
            pu = self._unmatch(u)
            pv = self._unmatch(v)
            self.mate[u] = v
            self.mate[v] = u
            for orphan in (pu, pv):
                if orphan != UNMATCHED and orphan not in (u, v):
                    self._greedy_match(orphan)
        else:
            self._greedy_match(u)
            self._greedy_match(v)

    def delete(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}`` and repair locally."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not present")
        self._overlay.delete(u, v)
        self.updates += 1
        if self.mate[u] == v:
            self._unmatch(u)
            self._greedy_match(u)
            self._greedy_match(v)

    def rebuild(self) -> None:
        """Re-run LD matching from scratch (the periodic drift reset).

        The snapshot also becomes the overlay's new base, so a long
        mutation history collapses back to an empty overlay.
        """
        snapshot = self.to_graph()
        self.mate = ld_seq(snapshot, collect_stats=False).mate.copy()
        self._overlay = OverlayGraph(snapshot)
        self.updates = 0

    # -------------------------------------------------------------- #
    def drift(self) -> float:
        """Current weight / rebuilt weight (≤ 1; 1 = no drift)."""
        snapshot = self.to_graph()
        fresh = ld_seq(snapshot, collect_stats=False)
        if fresh.weight == 0:
            return 1.0
        return matching_weight(snapshot, self.mate) / fresh.weight
