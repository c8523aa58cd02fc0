"""Base + overlay view of an edge-mutable graph.

The streaming plane (:mod:`repro.streaming`) needs a graph that starts
from an immutable :class:`CSRGraph` and absorbs edge
inserts/deletes/reweights, while staying able to hand back an exact
CSR snapshot vectorised — never a per-edge Python loop.

State is small structures over the untouched base CSR:

* the base's undirected edges as their keys ``u * n + v`` (``u < v``),
  one ascending int64 array, with their weights beside them — a base
  edge is found by ``np.searchsorted``, so the index costs 8 bytes per
  edge instead of a Python dict entry, and the endpoints are not kept:
  a snapshot derives them as ``divmod(key, n)``;
* a liveness mask over those keys (deletes and reweights of base
  edges flip one bit);
* an ``extra`` dict of overlay edges keyed by ``lo * n + hi`` —
  inserted edges plus the current weight of re-weighted base edges (an
  overlay key is never live in the base, so snapshots are a
  concatenation, not a merge).

A single vertex's current adjacency (:meth:`row_arrays`) is derived
from the same state: its base row filtered by the liveness mask, then
its overlay edges.

Updates arrive as ordered batches (:meth:`apply_batch`).  A batch is
checked as a whole before anything changes: one ``searchsorted`` finds
every touched edge's live state, each op's precondition is tested
against the state the earlier ops of the batch left on its edge, and
the first op that would fail raises — the graph is untouched.  Only a
batch that passes is committed.  :meth:`insert`, :meth:`delete` and
:meth:`reweight` are one-op batches, so every update obeys one set of
rules.

The vertex set is fixed at construction: canonical edge ids
(``lo * n + hi``) must mean the same thing in every snapshot for the
locally dominant tie-break to be stable across a stream of updates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph

__all__ = ["OverlayGraph"]

#: Op kinds of :meth:`OverlayGraph.apply_batch` and their codes.
_CODE = {"insert": 0, "delete": 1, "reweight": 2}
_DELETE = _CODE["delete"]
# Per op code: must the edge be present before the op, and is it after?
_NEEDS_PRESENT = np.array([False, True, True])
_LEAVES_PRESENT = np.array([True, False, True])

Op = tuple[str, int, int, "float | None"]


def _self_loop() -> ValueError:
    return ValueError("self-loops are not allowed")


def _out_of_range(n: int) -> ValueError:
    return ValueError(f"vertex out of range for fixed vertex set of {n}")


class OverlayGraph:
    """An edge-mutable graph over an immutable CSR base."""

    def __init__(self, base: CSRGraph, name: str | None = None):
        self._base = base
        self._n = base.num_vertices
        self.name = name if name is not None else f"{base.name}+overlay"
        bu, bv, bw = base.edge_array()
        keys = bu * np.int64(self._n) + bv
        del bu, bv
        # Rows listing their neighbours ascending (every from_coo graph)
        # give ascending keys; sort any other base's.
        if np.any(keys[1:] <= keys[:-1]):
            order = np.argsort(keys)
            keys, bw = keys[order], bw[order]
        self._base_keys = keys
        self._base_w = bw
        self._base_live = np.ones(len(keys), dtype=bool)
        self._num_edges = len(keys)
        self._extra: dict[int, float] = {}

    # -------------------------------------------------------------- #
    # read surface
    # -------------------------------------------------------------- #
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def _key(self, u: int, v: int) -> int:
        if u == v:
            raise _self_loop()
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise _out_of_range(self._n)
        return min(u, v) * self._n + max(u, v)

    def _base_slots(self, keys: np.ndarray) -> tuple[np.ndarray,
                                                      np.ndarray]:
        """Each key's position in the base edge list, and whether the
        base has that edge (live or not)."""
        slot = np.searchsorted(self._base_keys, keys)
        found = slot < len(self._base_keys)
        found[found] = self._base_keys[slot[found]] == keys[found]
        return slot, found

    def _live_weights(self, keys: np.ndarray, slot: np.ndarray,
                      found: np.ndarray) -> np.ndarray:
        """Current weight of every edge key in ``keys`` (NaN where the
        edge is absent), given the keys' :meth:`_base_slots`."""
        live = found.copy()
        live[found] = self._base_live[slot[found]]
        out = np.full(len(keys), np.nan)
        out[live] = self._base_w[slot[live]]
        if self._extra:
            get = self._extra.get
            for i in np.flatnonzero(~live).tolist():
                out[i] = get(int(keys[i]), np.nan)
        return out

    def _live_weight(self, key: int) -> float:
        """Scalar :meth:`_live_weights`."""
        w = self._extra.get(key)
        if w is not None:
            return w
        k = int(self._base_keys.searchsorted(key))
        if k < len(self._base_keys) and self._base_keys[k] == key \
                and self._base_live[k]:
            return float(self._base_w[k])
        return np.nan

    def has_edge(self, u: int, v: int) -> bool:
        return self._live_weight(self._key(u, v)) > 0

    def edge_weight(self, u: int, v: int) -> float:
        w = self._live_weight(self._key(u, v))
        if not w > 0:
            raise KeyError(f"edge ({u}, {v}) not present")
        return w

    def edge_weights(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`edge_weight` over endpoint arrays (every
        pair must be a present edge)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        keys = np.minimum(u, v) * np.int64(self._n) + np.maximum(u, v)
        out = self._live_weights(keys, *self._base_slots(keys))
        absent = np.flatnonzero(~(out > 0))
        if absent.size:
            i = int(absent[0])
            raise KeyError(f"edge ({int(u[i])}, {int(v[i])}) not present")
        return out

    def _live_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """Keys and weights of every current edge: the live base edges
        (ascending), then the overlay's (in insertion order)."""
        live = self._base_live
        ek = np.fromiter(self._extra, dtype=np.int64,
                         count=len(self._extra))
        ew = np.fromiter(self._extra.values(), dtype=np.float64,
                         count=len(self._extra))
        return (np.concatenate([self._base_keys[live], ek]),
                np.concatenate([self._base_w[live], ew]))

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current undirected edge list ``(u, v, w)``, ``u < v``,
        sorted lexicographically by ``(u, v)``."""
        keys, w = self._live_coo()
        order = np.argsort(keys)
        u, v = np.divmod(keys[order], self._n)
        return u, v, w[order]

    def row_arrays(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbours, weights)`` of ``v``'s *current* adjacency:
        surviving base entries in base order, then the overlay entries
        by ascending neighbour.

        A vertex whose row no update changed gets base CSR slice views
        (zero copy).  The row is derived, not stored: a ``searchsorted``
        of the base row's keys into the liveness mask plus one pass
        over the overlay's keys.
        """
        base, n = self._base, self._n
        s, e = int(base.indptr[v]), int(base.indptr[v + 1])
        nbrs = base.indices[s:e]
        ws = base.weights[s:e]
        nb = nbrs.astype(np.int64)
        keys = np.minimum(nb, v) * np.int64(n) + np.maximum(nb, v)
        keep = self._base_live[np.searchsorted(self._base_keys, keys)]
        ek = np.fromiter(self._extra, dtype=np.int64,
                         count=len(self._extra))
        lo, hi = np.divmod(ek, n)
        mine = np.flatnonzero((lo == v) | (hi == v))
        if not mine.size and keep.all():
            return nbrs, ws
        ew = np.fromiter(self._extra.values(), dtype=np.float64,
                         count=len(self._extra))
        other = lo[mine] + hi[mine] - v
        order = np.argsort(other)
        return (np.concatenate([nbrs[keep], other[order]]),
                np.concatenate([ws[keep], ew[mine][order]]))

    def to_csr(self, name: str | None = None) -> CSRGraph:
        """Exact CSR snapshot (vertex set preserved).  The live edges go
        to :func:`~repro.graph.builders.from_coo` unsorted: it sorts
        them by key itself."""
        keys, w = self._live_coo()
        u, v = np.divmod(keys, self._n)
        del keys
        return from_coo(u, v, w, num_vertices=self._n,
                        name=name or self.name)

    # -------------------------------------------------------------- #
    # mutation
    # -------------------------------------------------------------- #
    def apply_batch(
        self, ops: Sequence[Op],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply an ordered batch of ``(kind, u, v, w)`` ops atomically.

        ``kind`` is ``"insert"`` (the edge must be absent),
        ``"delete"`` (present; ``w`` is ignored) or ``"reweight"``
        (present); an op sees the state the batch's earlier ops left on
        its edge.  If any op would fail, the first one raises —
        ``KeyError`` for a missing edge, ``ValueError`` for anything
        else, the message starting ``op <index>:`` — and the graph is
        left unchanged.

        Returns ``(keys, old_w, new_w)``: every touched edge's key
        ``lo * n + hi`` (ascending, once each), its weight before the
        batch and its weight after it, NaN where the edge is absent.
        """
        return self._commit(self._stage(ops, name_op=True))

    def insert(self, u: int, v: int, w: float) -> None:
        """Insert a *new* edge; a present edge is a usage error (use
        :meth:`reweight`)."""
        self._commit(self._stage((("insert", u, v, w),), name_op=False))

    def reweight(self, u: int, v: int, w: float) -> None:
        """Change the weight of a present edge."""
        self._commit(self._stage((("reweight", u, v, w),), name_op=False))

    def delete(self, u: int, v: int) -> None:
        """Delete a present edge."""
        self._commit(self._stage((("delete", u, v, None),),
                                 name_op=False))

    def _stage(self, ops: Sequence[Op], name_op: bool) -> tuple:
        """Check ``ops`` as one ordered batch against the live state;
        raise for the first op that would fail, else return what
        :meth:`_commit` writes."""
        n = self._n
        if not ops:
            none = np.empty(0, dtype=np.int64)
            return none, none, np.empty(0, dtype=bool), np.empty(0), \
                np.empty(0)
        kinds, us, vs, ws = zip(*ops)
        code = np.array([_CODE.get(k, -1) for k in kinds])
        try:
            u = np.array(us, dtype=np.int64)
            v = np.array(vs, dtype=np.int64)
        except OverflowError:
            # Ids past int64 are out of range; keep such u and v apart
            # so they do not read as a self-loop.
            u = np.array([x if 0 <= x < n else -1 for x in us])
            v = np.array([x if 0 <= x < n else -2 for x in vs])
        w = np.array([np.nan if x is None else x for x in ws],
                     dtype=np.float64)
        w[code == _DELETE] = np.nan
        # Per-op checks, in the order a failing op reports them.
        bad = [code < 0, u == v,
               (u < 0) | (u >= n) | (v < 0) | (v >= n),
               (code != _DELETE) & ~((w > 0) & (w < np.inf))]
        sane = ~(bad[0] | bad[1] | bad[2])
        ops_at = np.flatnonzero(sane)
        keys = np.minimum(u, v)[ops_at] * np.int64(n) \
            + np.maximum(u, v)[ops_at]
        # Group the ops by edge, in batch order within each edge.
        order = np.argsort(keys, kind="stable")
        keys, ops_at = keys[order], ops_at[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = first[1:]
        uniq = keys[first]
        slot, found = self._base_slots(uniq)
        old_w = self._live_weights(uniq, slot, found)
        # An op sees the edge as the batch's previous op on it left it.
        present = np.empty(len(keys), dtype=bool)
        present[first] = old_w > 0
        later = np.flatnonzero(~first)
        present[later] = _LEAVES_PRESENT[code[ops_at[later - 1]]]
        clash = np.zeros(len(ops), dtype=bool)
        clash[ops_at] = present != _NEEDS_PRESENT[code[ops_at]]
        bad.append(clash)
        failed = np.logical_or.reduce(bad)
        if failed.any():
            j = int(np.argmax(failed))
            check = next(i for i, b in enumerate(bad) if b[j])
            exc = self._rejection(check, ops[j])
            if name_op:
                exc = type(exc)(f"op {j}: {exc.args[0]}")
            raise exc
        return uniq, slot, found, old_w, w[ops_at[last]]

    def _rejection(self, check: int, op: Op) -> Exception:
        kind, u, v, w = op
        if check == 0:
            return ValueError(f"unknown op kind {kind!r}")
        if check == 1:
            return _self_loop()
        if check == 2:
            return _out_of_range(self._n)
        if check == 3:
            return ValueError(
                f"weights must be positive and finite, got {w!r}")
        if kind == "insert":
            return ValueError(f"edge ({u}, {v}) already present; "
                              "use reweight")
        return KeyError(f"edge ({u}, {v}) not present")

    def _commit(self, staged: tuple) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        keys, slot, found, old_w, new_w = staged
        # A touched base edge lives on, if at all, as an overlay edge.
        self._base_live[slot[found]] = False
        extra = self._extra
        for key, w in zip(keys.tolist(), new_w.tolist()):
            if w > 0:
                extra[key] = w
            else:
                extra.pop(key, None)
        self._num_edges += int(np.count_nonzero(new_w > 0)) \
            - int(np.count_nonzero(old_w > 0))
        return keys, old_w, new_w
