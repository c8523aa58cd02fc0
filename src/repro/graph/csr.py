"""Compressed Sparse Row graph storage.

This mirrors the representation used by LD-GPU (§III-A of the paper): a
simple undirected graph held as three flat arrays — a vertex offset array
(``indptr``), a 64-bit edge endpoint array (``indices``) and an edge weight
array (``weights``).  Both directions of every undirected edge are stored, so
``indices`` has ``2·|E|`` entries for a graph with ``|E|`` undirected edges.

The class is deliberately a thin, immutable-by-convention container: all
algorithmic work in :mod:`repro.matching` operates directly on the arrays
(views, never copies) so that per-device sub-graphs in the multi-GPU
simulation can alias the host arrays the way ``cudaMemcpyAsync`` sources do.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = ["CSRGraph", "GraphFormatError"]

#: Attributes of :class:`CSRGraph` holding derived-array memos.
_MEMOS = ("_degrees", "_canonical_eids", "_orders", "_fingerprint")


class GraphFormatError(ValueError):
    """Raised when arrays handed to :class:`CSRGraph` are inconsistent."""


@dataclass
class CSRGraph:
    """An undirected, positively weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``v``'s adjacency occupies
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of neighbour ids (each undirected edge appears twice).
    weights:
        ``float64`` array aligned with ``indices``; weights are strictly
        positive, matching the paper's ``w : E -> R_{>0}``.
    name:
        Optional label used by the benchmark harness and reports.

    Notes
    -----
    ``validate()`` is *not* run by the constructor: builders that already
    guarantee well-formedness (generators, partition slicing) skip the O(m)
    checks.  Use :meth:`CSRGraph.checked` when ingesting untrusted arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = field(default="graph")
    # Derived-value memos, each held as ``(sources, value)``: the value
    # is read-only and is rebuilt whenever one of the source arrays it
    # was derived from has since been reassigned (e.g. ``g.weights =
    # ...`` on a ``copy.copy``).  The contract they rely on: the CSR
    # arrays are reassigned, never written in place.  Pickling drops
    # them (see ``__getstate__``), so a shipped graph costs only its CSR
    # arrays.
    _degrees: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _canonical_eids: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(sorted_row_order(), sorted_edge_order(), sorted_neighbors(),
    #: *sorted_edge_endpoints())``, built together.
    _orders: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :func:`repro.telemetry.provenance.graph_fingerprint`'s memo.
    _fingerprint: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for attr in _MEMOS:
            state[attr] = None
        return state

    def _current(self, attr: str, sources: tuple):
        """The memo on ``attr`` if it was built from ``sources``, else
        ``None``."""
        memo = getattr(self, attr)
        if memo is None or any(
            a is not b for a, b in zip(memo[0], sources)
        ):
            return None
        return memo

    def _memoised(self, attr: str, sources: tuple, build):
        """``build()``'s result (its arrays made read-only), cached on
        ``attr`` until an array in ``sources`` is no longer the one it
        was built from."""
        memo = self._current(attr, sources)
        if memo is None:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            memo = (sources, value)
            setattr(self, attr, memo)
        return memo[1]

    @classmethod
    def checked(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a graph and run the full validity check."""
        g = cls(indptr, indices, weights, name)
        g.validate()
        return g

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "CSRGraph":
        """An edgeless graph on ``num_vertices`` vertices."""
        return cls(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            name,
        )

    @classmethod
    def from_buffers(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        name: str = "graph",
    ) -> "CSRGraph":
        """Zero-copy graph over externally owned storage.

        Intended for arrays mapped out of a shared-memory segment
        (:mod:`repro.harness.shm`): the inputs are wrapped in *read-only
        views* — no bytes are copied as long as each array is already
        contiguous with the canonical dtype — so mutating the graph
        through this object is impossible and mutating the underlying
        buffer is the caller's contract to avoid.  The memoised
        derivations (:attr:`degrees`, :meth:`canonical_edge_ids`, the
        sorted orders, the content fingerprint) work unchanged (they
        allocate fresh values; nothing is written back into the
        buffers).  The caller keeps the buffers alive for the
        graph's lifetime; numpy views hold a reference to the exporting
        object, which pins ``SharedMemory`` mappings automatically.
        """
        views = []
        for arr, dtype in (
            (indptr, np.int64), (indices, np.int64), (weights, np.float64),
        ):
            v = np.ascontiguousarray(arr, dtype=dtype)
            if v is arr:  # don't flip writability on the caller's array
                v = v.view()
            v.setflags(write=False)
            views.append(v)
        return cls(*views, name)

    def export_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views of ``(indptr, indices, weights)``.

        The publish half of the shared-memory plane: callers copy these
        into a segment (or hand them to :meth:`from_buffers` for an
        in-process alias) without being able to corrupt the source.
        """
        out = []
        for arr in (self.indptr, self.indices, self.weights):
            v = arr.view()
            v.setflags(write=False)
            out.append(v)
        return tuple(out)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return len(self.indptr) - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries, ``2·|E|``."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """``|E|`` — undirected edge count."""
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (``int64``; cached, read-only)."""
        return self._memoised("_degrees", (self.indptr,),
                              lambda: np.diff(self.indptr))

    @property
    def max_degree(self) -> int:
        """``d_max`` as reported in the paper's Table I."""
        d = self.degrees
        return int(d.max()) if len(d) else 0

    @property
    def avg_degree(self) -> float:
        """``d_avg`` as reported in the paper's Table I."""
        n = self.num_vertices
        return (self.num_directed_edges / n) if n else 0.0

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights (each edge counted once)."""
        return float(self.weights.sum()) / 2.0

    def memory_bytes(self, index_bytes: int = 8, weight_bytes: int = 8) -> int:
        """Bytes needed to hold the CSR arrays at the given widths.

        LD-GPU uses 64-bit indices (``index_bytes=8``) while SR-GPU uses a
        32-bit representation (``index_bytes=4``, ``weight_bytes=4``) — the
        reason SR-GPU addresses less memory but also overflows on LARGE
        inputs in the paper's Table I.
        """
        return (
            len(self.indptr) * index_bytes
            + len(self.indices) * index_bytes
            + len(self.weights) * weight_bytes
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def neighbors(self, v: int) -> np.ndarray:
        """View of ``v``'s neighbour ids."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of the weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        nbrs = self.neighbors(u)
        hits = np.nonzero(nbrs == v)[0]
        if len(hits) == 0:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return float(self.neighbor_weights(u)[hits[0]])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is present."""
        return bool(np.any(self.neighbors(u) == v))

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.num_vertices):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for k in range(lo, hi):
                v = int(self.indices[k])
                if u < v:
                    yield u, v, float(self.weights[k])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised undirected edge list ``(u, v, w)`` with ``u < v``."""
        rows = self._row_ids()
        keep = rows < self.indices
        return rows[keep], self.indices[keep], self.weights[keep]

    def canonical_edge_ids(self) -> np.ndarray:
        """Per adjacency entry, a total-order id for its undirected edge.

        ``eid({u, v}) = min(u, v) * n + max(u, v)`` — identical from both
        endpoints, so it serves as the deterministic tie-breaking key the
        locally dominant algorithms need to guarantee progress on weight
        ties (DESIGN.md §5).  Exact for ``n^2 < 2^63``.  Cached on first
        access (read-only): the O(m) derivation used to be repeated per
        algorithm call.
        """
        return self._memoised("_canonical_eids",
                              (self.indptr, self.indices), self._build_eids)

    def _build_eids(self) -> np.ndarray:
        n = self.num_vertices
        rows = self._row_ids()
        lo = np.minimum(rows, self.indices)
        hi = np.maximum(rows, self.indices)
        return lo * np.int64(n) + hi

    def sorted_row_order(self) -> np.ndarray:
        """Per-row permutation sorting adjacency descending by ``(w, eid)``.

        ``order[indptr[v]:indptr[v + 1]]`` holds the positions (global
        indices into ``indices`` / ``weights``) of row ``v``'s entries,
        heaviest first, ties broken by the larger canonical edge id —
        the order in which LD's pointing kernel, Suitor's proposals and
        the streaming engine's cursors visit a vertex's neighbours
        (paper §III-B).  On a graph whose rows list their neighbours in
        ascending order (every :func:`~repro.graph.builders.from_coo`
        graph) the canonical edge ids of a row ascend with the position,
        so the tie rule is "the later position first" and the build
        needs no edge ids; any other graph falls back to a sort keyed on
        the ids, with the same result.  It is cut, with
        :meth:`sorted_edge_order`, from the graph's one global sort,
        computed on first access of any layout array and cached
        read-only, as ``int32`` when ``2m < 2^31`` (else ``int64``).
        """
        return self._sorted_layout()[0]

    def sorted_edge_order(self) -> np.ndarray:
        """Positions of the ``row < neighbour`` entries, descending by
        ``(w, eid)``.

        One entry per undirected edge, heaviest first, ties broken by
        the larger canonical edge id: the global order greedy matching
        and greedy b-matching scan.  Among the ``row < neighbour``
        entries of a graph with ascending rows, positions ascend with
        the canonical edge id, so ties again go to the later position;
        other graphs take the id-keyed fallback of
        :meth:`sorted_row_order`, with which it is memoised.
        """
        return self._sorted_layout()[1]

    def sorted_neighbors(self) -> np.ndarray:
        """Neighbour id per slot of :meth:`sorted_row_order`
        (``indices[sorted_row_order()]``), memoised with it as
        ``int32`` when ``n < 2^31``: the array the pointing cursors and
        the streaming pool read, so no run gathers it."""
        return self._sorted_layout()[2]

    def sorted_edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """``(u, v)`` with ``u < v`` per entry of
        :meth:`sorted_edge_order`, memoised with it as ``int32`` when
        ``n < 2^31``: greedy's scan order, so no run gathers it."""
        return self._sorted_layout()[3:]

    def _sorted_layout(self) -> tuple[np.ndarray, ...]:
        return self._memoised(
            "_orders", (self.indptr, self.indices, self.weights),
            self._build_layout)

    def built_layout(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(sorted_row_order(), sorted_edge_order())`` if the layout
        memo is built and current, else ``None`` (it never builds):
        what a snapshot stores of the layout."""
        memo = self._current(
            "_orders", (self.indptr, self.indices, self.weights))
        return None if memo is None else memo[1][:2]

    def adopt_layout(self, rows: np.ndarray, edges: np.ndarray,
                     seal: str, fingerprint: str) -> bool:
        """Seed the layout memo from stored orders; ``True`` if adopted.

        ``rows``/``edges`` are a snapshot's :meth:`sorted_row_order` and
        :meth:`sorted_edge_order`, ``seal`` the :func:`layout_seal` it
        stored with them, ``fingerprint`` the verified content
        fingerprint of this graph.  The orders are adopted only when
        the seal, recomputed over their bytes, this graph's fingerprint
        and this module's source, matches: a truncated or edited order,
        one stored for other content, or one sorted by other code is
        refused, and the layout is built lazily as on any graph.  The
        gathered arrays (neighbour ids, edge endpoints) are re-derived.
        """
        if seal != layout_seal(rows, edges, fingerprint):
            return False
        self._memoised(
            "_orders", (self.indptr, self.indices, self.weights),
            lambda: self._gather_layout(rows, edges))
        return True

    def _gather_layout(self, rows: np.ndarray,
                       edges: np.ndarray) -> tuple[np.ndarray, ...]:
        id_dtype = np.int32 if self.num_vertices < 2**31 else np.int64
        nbrs = _gather_into(np.empty(len(rows), id_dtype), self.indices, rows)
        ev = _gather_into(np.empty(len(edges), id_dtype), self.indices, edges)
        return rows, edges, nbrs, self._row_ids(id_dtype)[edges], ev

    def _rows_ascending(self) -> bool:
        """Whether every row lists its neighbours strictly ascending."""
        idx = self.indices
        up = idx[1:] > idx[:-1]
        # A row's first entry need not exceed the previous row's last.
        starts = self.indptr[1:-1]
        up[starts[(starts > 0) & (starts < len(idx))] - 1] = True
        return bool(up.all())

    def _build_layout(self) -> tuple[np.ndarray, ...]:
        n, m2 = self.num_vertices, len(self.indices)
        pos_dtype = np.int32 if m2 < 2**31 else np.int64
        id_dtype = np.int32 if n < 2**31 else np.int64
        # Every memo array outlives the sort's temporaries, so they are
        # allocated first, where they cannot pin heap memory the
        # temporaries free (it showed in the sweep benchmark's peak RSS).
        # The row ids are made again after the sort, which then holds
        # one fewer array.
        ne = int(np.count_nonzero(self._row_ids(id_dtype) < self.indices))
        rows, edges = np.empty(m2, pos_dtype), np.empty(ne, pos_dtype)
        nbrs = np.empty(m2, id_dtype)
        eu, ev = np.empty(ne, id_dtype), np.empty(ne, id_dtype)
        # One stable global sort by (weight desc, eid desc).  With
        # ascending rows, eid order is position order within a row and
        # among the row < neighbour entries, so it is a stable sort of
        # the reversed positions by descending weight (a radix sort of
        # the weights' dense rank, cheaper than a stable sort of
        # floats).  Otherwise the
        # eids are built for this sort alone (not memoised); they are
        # non-negative, so negation is safe.
        if self._rows_ascending():
            order = _stable_by(np.arange(m2 - 1, -1, -1, dtype=pos_dtype),
                               *_descending_rank(self.weights, pos_dtype))
        else:
            order = np.lexsort((-self._build_eids(), -self.weights))
        row_ids = self._row_ids(id_dtype)
        edges[:] = order[(row_ids < self.indices)[order]]
        eu[:] = row_ids[edges]
        _gather_into(ev, self.indices, edges)
        # Its stable regrouping by row keeps rows contiguous, so
        # ``indptr`` still delimits them.
        rows[:] = _stable_by(order, row_ids, n - 1)
        del order, row_ids
        _gather_into(nbrs, self.indices, rows)
        return rows, edges, nbrs, eu, ev

    def _row_ids(self, dtype=np.int64) -> np.ndarray:
        return np.repeat(np.arange(self.num_vertices, dtype=dtype),
                         self.degrees)

    # ------------------------------------------------------------------ #
    # validation / transforms
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Raise :class:`GraphFormatError` unless the CSR arrays encode a
        simple undirected graph with finite positive weights."""
        if len(self.indptr) < 1:
            raise GraphFormatError("indptr must have length >= 1")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise GraphFormatError(
                f"indptr[-1] ({self.indptr[-1]}) != len(indices) "
                f"({len(self.indices)})"
            )
        if len(self.indices) != len(self.weights):
            raise GraphFormatError("indices and weights length mismatch")
        n = self.num_vertices
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphFormatError("neighbour id out of range")
        w = self.weights
        if len(w) and not np.all((w > 0) & (w < np.inf)):
            raise GraphFormatError(
                "edge weights must be finite and strictly positive")
        rows = self._row_ids()
        if np.any(rows == self.indices):
            raise GraphFormatError("self-loops are not allowed")
        # Symmetry + simplicity: the multiset of (min, max) pairs must
        # contain every pair an even number of times with matching weights.
        lo = np.minimum(rows, self.indices)
        hi = np.maximum(rows, self.indices)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], self.weights[order]
        if len(lo) % 2:
            raise GraphFormatError("odd number of directed entries")
        if not (
            np.array_equal(lo[0::2], lo[1::2])
            and np.array_equal(hi[0::2], hi[1::2])
        ):
            raise GraphFormatError("adjacency is not symmetric")
        plo, phi = lo[0::2], hi[0::2]
        if np.any((plo[1:] == plo[:-1]) & (phi[1:] == phi[:-1])):
            raise GraphFormatError("parallel edges are not allowed")
        if not np.allclose(w[0::2], w[1::2]):
            raise GraphFormatError("edge weights are not symmetric")

    def reweighted(self, weights: np.ndarray) -> "CSRGraph":
        """Same structure with a new aligned weight array."""
        if len(weights) != len(self.indices):
            raise GraphFormatError("weight array length mismatch")
        return CSRGraph(self.indptr, self.indices, weights, self.name)

    def row_slice(self, start: int, stop: int) -> "CSRGraph":
        """Sub-CSR for the contiguous vertex range ``[start, stop)``.

        Neighbour ids stay *global* (they may point outside the range) —
        exactly how a device partition stores cut edges in §III-A.  The
        ``indices`` / ``weights`` arrays are views into the parent.
        """
        base = self.indptr[start]
        indptr = self.indptr[start : stop + 1] - base
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRGraph(
            indptr,
            self.indices[lo:hi],
            self.weights[lo:hi],
            f"{self.name}[{start}:{stop}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, d_max={self.max_degree}, "
            f"d_avg={self.avg_degree:.1f})"
        )


@lru_cache(maxsize=1)
def _source_digest() -> bytes:
    """Digest of this module's source: the code that sorts a layout."""
    try:
        with open(__file__, "rb") as fh:
            return hashlib.sha256(fh.read()).digest()
    except OSError:  # no source to key by: no seal outlives the process
        return os.urandom(32)


def layout_seal(rows: np.ndarray, edges: np.ndarray,
                fingerprint: str) -> str:
    """Digest binding a stored layout to its graph and to the code that
    sorted it: over the two orders' dtypes, shapes and bytes, the
    graph's content fingerprint and this module's source."""
    h = hashlib.sha256(_source_digest())
    h.update(fingerprint.encode())
    for arr in (rows, edges):
        a = np.ascontiguousarray(arr)
        h.update(f";{a.dtype.str}{a.shape}".encode())
        h.update(a.data)
    return h.hexdigest()


#: Entries per block of a blocked gather.
_GATHER_BLOCK = 1 << 16


def _gather_into(out: np.ndarray, src: np.ndarray,
                 idx: np.ndarray) -> np.ndarray:
    """``out[:] = src[idx]`` in blocks, so that a narrower ``out``
    costs no ``len(idx)`` temporary of ``src``'s dtype."""
    for lo in range(0, len(idx), _GATHER_BLOCK):
        hi = lo + _GATHER_BLOCK
        out[lo:hi] = src[idx[lo:hi]]
    return out


def _descending_rank(w: np.ndarray, dtype) -> tuple[np.ndarray, int]:
    """Per entry, the number of distinct values in ``w`` above it, and
    the largest such count: a dense integer key that orders like
    ``-w``."""
    p = np.argsort(w)  # ties in any order: only distinct values count
    step = np.zeros(len(w), dtype)
    for lo in range(1, len(w), _GATHER_BLOCK):  # the sorted w, by blocks
        ws = w[p[lo - 1:lo + _GATHER_BLOCK]]
        np.not_equal(ws[1:], ws[:-1], out=step[lo:lo + _GATHER_BLOCK])
    np.cumsum(step, dtype=dtype, out=step)
    top = int(step[-1]) if len(step) else 0
    np.subtract(top, step, out=step)
    rank = np.empty_like(step)
    rank[p] = step
    return rank, top


def _stable_by(order: np.ndarray, key: np.ndarray, top: int) -> np.ndarray:
    """``order`` stably re-sorted by ``key[order]`` (integers in
    ``[0, top]``): an LSD radix sort over the key's 16-bit digits.
    NumPy's stable sort of ``uint16`` keys is itself a radix sort, so
    each digit is one O(m) pass.  Digits are gathered in blocks, and
    each digit and permutation is freed before the next is made."""
    shift = 0
    while True:
        digit = np.empty(len(order), np.uint16)
        for lo in range(0, len(order), _GATHER_BLOCK):
            hi = lo + _GATHER_BLOCK
            digit[lo:hi] = key[order[lo:hi]] >> shift
        perm = np.argsort(digit, kind="stable")
        del digit
        order = order[perm]
        del perm
        shift += 16
        if top >> shift <= 0:
            return order
