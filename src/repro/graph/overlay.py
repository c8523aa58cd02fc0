"""Base + overlay view of an edge-mutable graph.

The streaming plane (:mod:`repro.streaming`) needs a graph that starts
from an immutable :class:`CSRGraph` and absorbs edge
inserts/deletes/reweights in O(log m) each, while staying able to (a)
hand back an exact CSR snapshot vectorised — never a per-edge Python
loop — and (b) reconstruct any *single* vertex's current adjacency in
O(deg).

State is small structures over the untouched base CSR:

* the base's undirected edge list, sorted by ``(u, v)``, with its keys
  ``u * n + v`` as one ascending int64 array — a base edge is found by
  ``np.searchsorted``, so the index costs 8 bytes per edge instead of a
  Python dict entry;
* a liveness mask over that edge list (deletes and reweights of base
  edges flip one bit);
* an ``extra`` dict of overlay edges — inserted edges plus the current
  weight of re-weighted base edges (an overlay key is never live in the
  base, so snapshots are a concatenation, not a merge);
* per-vertex ``row edits`` (neighbour -> weight-or-deleted) recording
  how a vertex's adjacency differs from its base CSR row, so
  :meth:`row_arrays` pays O(deg(v)) for exactly the vertices that
  changed and O(1) (a base slice view) for everyone else.

The vertex set is fixed at construction: canonical edge ids
(``lo * n + hi``) must mean the same thing in every snapshot for the
locally dominant tie-break to be stable across a stream of updates.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph

__all__ = ["OverlayGraph"]


def _check_weight(w: float) -> None:
    # NaN would break the (w, eid) total order the matchers rely on.
    if not (0 < w < np.inf):
        raise ValueError(f"weights must be positive and finite, got {w!r}")


class OverlayGraph:
    """An edge-mutable graph over an immutable CSR base."""

    def __init__(self, base: CSRGraph, name: str | None = None):
        self._base = base
        self._n = base.num_vertices
        self.name = name if name is not None else f"{base.name}+overlay"
        bu, bv, bw = base.edge_array()
        self._base_uvw = (bu, bv, bw)
        self._base_live = np.ones(len(bu), dtype=bool)
        # edge_array() is sorted by (u, v), so these keys ascend.
        self._base_keys = bu * np.int64(self._n) + bv
        self._extra: dict[tuple[int, int], float] = {}
        self._row_edits: dict[int, dict[int, float | None]] = {}

    # -------------------------------------------------------------- #
    # read surface
    # -------------------------------------------------------------- #
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return int(self._base_live.sum()) + len(self._extra)

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(
                f"vertex out of range for fixed vertex set of {self._n}")
        return (u, v) if u < v else (v, u)

    def _base_slot(self, key: tuple[int, int]) -> int | None:
        """Position of ``key`` in the base edge list, live or not."""
        x = key[0] * self._n + key[1]
        k = int(self._base_keys.searchsorted(x))
        if k < len(self._base_keys) and self._base_keys[k] == x:
            return k
        return None

    def has_edge(self, u: int, v: int) -> bool:
        key = self._key(u, v)
        if key in self._extra:
            return True
        k = self._base_slot(key)
        return k is not None and bool(self._base_live[k])

    def edge_weight(self, u: int, v: int) -> float:
        key = self._key(u, v)
        w = self._extra.get(key)
        if w is not None:
            return w
        k = self._base_slot(key)
        if k is None or not self._base_live[k]:
            raise KeyError(f"edge ({u}, {v}) not present")
        return float(self._base_uvw[2][k])

    def edge_weights(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`edge_weight` over endpoint arrays (every
        pair must be a present edge)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * np.int64(self._n) + hi
        k = np.searchsorted(self._base_keys, keys)
        in_base = k < len(self._base_keys)
        kb = k[in_base]
        in_base[in_base] = (self._base_keys[kb] == keys[in_base]) \
            & self._base_live[kb]
        out = np.empty(len(keys), dtype=np.float64)
        out[in_base] = self._base_uvw[2][k[in_base]]
        for i in np.flatnonzero(~in_base).tolist():
            out[i] = self.edge_weight(int(lo[i]), int(hi[i]))
        return out

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current undirected edge list ``(u, v, w)``, ``u < v``,
        sorted lexicographically by ``(u, v)``."""
        bu, bv, bw = self._base_uvw
        live = self._base_live
        if self._extra:
            keys = np.array(sorted(self._extra), dtype=np.int64)
            eu, ev = keys[:, 0], keys[:, 1]
            ew = np.array([self._extra[(int(a), int(b))] for a, b in keys],
                          dtype=np.float64)
        else:
            eu = ev = np.empty(0, dtype=np.int64)
            ew = np.empty(0, dtype=np.float64)
        u = np.concatenate([bu[live], eu])
        v = np.concatenate([bv[live], ev])
        w = np.concatenate([bw[live], ew])
        order = np.lexsort((v, u))
        return u[order], v[order], w[order]

    def row_arrays(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbours, weights)`` of ``v``'s *current* adjacency.

        Vertices without pending edits return base CSR slice views
        (zero copy); edited vertices pay O(deg(v)) to apply their edit
        dict to the base row.
        """
        base = self._base
        s, e = int(base.indptr[v]), int(base.indptr[v + 1])
        nbrs = base.indices[s:e]
        ws = base.weights[s:e]
        edits = self._row_edits.get(v)
        if not edits:
            return nbrs, ws
        edited = np.fromiter(edits.keys(), dtype=np.int64,
                             count=len(edits))
        keep = ~np.isin(nbrs, edited)
        add = [(n, w) for n, w in edits.items() if w is not None]
        add_n = np.array([n for n, _ in add], dtype=np.int64)
        add_w = np.array([w for _, w in add], dtype=np.float64)
        return (np.concatenate([nbrs[keep], add_n]),
                np.concatenate([ws[keep], add_w]))

    def to_csr(self, name: str | None = None) -> CSRGraph:
        """Exact CSR snapshot (vertex set preserved)."""
        u, v, w = self.edges()
        return from_coo(u, v, w, num_vertices=self._n,
                        name=name or self.name)

    # -------------------------------------------------------------- #
    # mutation
    # -------------------------------------------------------------- #
    def _edit(self, u: int, v: int, w: float | None) -> None:
        self._row_edits.setdefault(u, {})[v] = w
        self._row_edits.setdefault(v, {})[u] = w

    def insert(self, u: int, v: int, w: float) -> None:
        """Insert a *new* edge; a present edge is a usage error (use
        :meth:`reweight`)."""
        key = self._key(u, v)
        _check_weight(w)
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present; "
                             "use reweight")
        self._extra[key] = w
        self._edit(u, v, w)

    def reweight(self, u: int, v: int, w: float) -> None:
        """Change the weight of a present edge."""
        key = self._key(u, v)
        _check_weight(w)
        if key not in self._extra:
            k = self._base_slot(key)
            if k is None or not self._base_live[k]:
                raise KeyError(f"edge ({u}, {v}) not present")
            self._base_live[k] = False
        self._extra[key] = w
        self._edit(u, v, w)

    def delete(self, u: int, v: int) -> None:
        """Delete a present edge."""
        key = self._key(u, v)
        if key in self._extra:
            del self._extra[key]
        else:
            k = self._base_slot(key)
            if k is None or not self._base_live[k]:
                raise KeyError(f"edge ({u}, {v}) not present")
            self._base_live[k] = False
        self._edit(u, v, None)
