"""Edge-update event model: batches of inserts/deletes/reweights.

An :class:`UpdateBatch` is an *ordered* tuple of operations — order
matters inside a batch (an edge may be inserted and deleted by the same
batch) — applied atomically by a streaming engine: all structural
changes land first, then one repair runs.

An :class:`EdgeStream` is a replayable sequence of batches over a fixed
vertex set.  Two sources, both deterministic:

* :meth:`EdgeStream.generate` draws batches from a seeded RNG against a
  *tracked* live-edge set (ops are valid by construction: inserts only
  where no edge exists, deletes/reweights only of live edges), so the
  same ``(graph, seed, shape)`` always yields the same stream in any
  process;
* :meth:`EdgeStream.save` / :meth:`EdgeStream.load` round-trip the
  stream through a JSONL event log (one header line, one line per
  batch), so a recorded production trace replays bit-identically.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = ["OPS", "UpdateBatch", "EdgeStream"]

#: Operation kinds, in their event-log spelling.
OPS = ("insert", "delete", "reweight")

_STREAM_LOG_VERSION = 1


def _integer(value, what: str) -> int:
    """``value`` as an ``int``: an integer, or a float with no
    fractional part.  Anything else — a fractional or non-finite float,
    a bool, a string — raises ``ValueError`` naming ``what``, where
    ``int()`` would truncate or parse it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} {value!r} is not an integer")


@dataclass(frozen=True)
class UpdateBatch:
    """One ordered batch of edge events.

    Each op is ``(kind, u, v, w)`` with ``kind`` in :data:`OPS` and
    ``w is None`` exactly for deletes.
    """

    ops: tuple[tuple[str, int, int, float | None], ...]

    def __post_init__(self) -> None:
        for kind, u, v, w in self.ops:
            if kind not in OPS:
                raise ValueError(f"unknown op kind {kind!r}")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if kind == "delete":
                if w is not None:
                    raise ValueError("delete carries no weight")
            elif w is None or not 0 < w < np.inf:
                # NaN would break the (w, eid) total order of the repair.
                raise ValueError(f"{kind} needs a finite positive weight")

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of every op in the batch."""
        if not self.ops:
            return np.empty(0, dtype=np.int64)
        flat = np.array([[u, v] for _, u, v, _ in self.ops],
                        dtype=np.int64).ravel()
        return np.unique(flat)

    def to_doc(self) -> dict:
        return {"ops": [[k, u, v] if w is None else [k, u, v, w]
                        for k, u, v, w in self.ops]}

    @classmethod
    def from_doc(cls, doc: dict) -> "UpdateBatch":
        ops = []
        for j, entry in enumerate(doc["ops"]):
            kind = entry[0]
            u = _integer(entry[1], f"op {j}: vertex id")
            v = _integer(entry[2], f"op {j}: vertex id")
            w = float(entry[3]) if len(entry) > 3 else None
            ops.append((kind, u, v, w))
        return cls(ops=tuple(ops))


@dataclass(frozen=True)
class EdgeStream:
    """A replayable sequence of :class:`UpdateBatch` over ``n``
    vertices."""

    num_vertices: int
    batches: tuple[UpdateBatch, ...]
    seed: int | None = field(default=None)

    def __iter__(self) -> Iterator[UpdateBatch]:
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def num_ops(self) -> int:
        return sum(b.num_ops for b in self.batches)

    # -------------------------------------------------------------- #
    # seeded generator
    # -------------------------------------------------------------- #
    @classmethod
    def generate(
        cls,
        graph: "CSRGraph",
        num_batches: int = 8,
        batch_size: int = 32,
        seed: int = 0,
        p_insert: float = 0.55,
        p_delete: float = 0.25,
    ) -> "EdgeStream":
        """Deterministic mixed stream against ``graph``'s edge set.

        Ops are valid by construction: the generator tracks the live
        edge set as it emits, so inserts never duplicate an edge and
        deletes/reweights always hit one.  Remaining probability mass
        (``1 - p_insert - p_delete``) goes to reweights.

        The live edges are int64 keys ``lo * n + hi`` in one array,
        base edges first in :meth:`~repro.graph.csr.CSRGraph.edge_array`
        order, inserts appended, a delete filled by the last key (the
        rng indexes this order, so it fixes the stream).  Presence is a
        liveness mask over the base's sorted keys, found by
        ``searchsorted``, plus a set of the inserted keys: about 17
        bytes per base edge, where per-edge tuples and a dict took ~240.
        """
        if num_batches < 0 or batch_size < 1:
            raise ValueError("need num_batches >= 0 and batch_size >= 1")
        if not (0 <= p_insert and 0 <= p_delete
                and p_insert + p_delete <= 1):
            raise ValueError("op probabilities must be a sub-distribution")
        n = graph.num_vertices
        if n < 2:
            raise ValueError("need at least 2 vertices to stream updates")
        rng = np.random.default_rng(seed)
        bu, bv = graph.edge_array()[:2]
        m = len(bu)
        live = np.empty(m + num_batches * batch_size, dtype=np.int64)
        np.multiply(bu, n, out=live[:m])
        live[:m] += bv
        del bu, bv
        size = m
        base_keys = live[:m].copy()
        if np.any(base_keys[1:] <= base_keys[:-1]):
            base_keys.sort()
        base_live = np.ones(m, dtype=bool)
        inserted: set[int] = set()

        def present(key: int) -> bool:
            if key in inserted:
                return True
            k = int(base_keys.searchsorted(key))
            return k < m and base_keys[k] == key and bool(base_live[k])

        def draw_weight() -> float:
            return float(np.round(rng.random() * 0.998 + 0.001, 6))

        def pop_live(i: int) -> int:
            nonlocal size
            key = int(live[i])
            size -= 1
            live[i] = live[size]
            if key in inserted:
                inserted.remove(key)
            else:
                base_live[base_keys.searchsorted(key)] = False
            return key

        batches = []
        for _ in range(num_batches):
            ops: list[tuple[str, int, int, float | None]] = []
            for _ in range(batch_size):
                r = float(rng.random())
                if r >= p_insert and size:
                    i = int(rng.integers(0, size))
                    if r < p_insert + p_delete:
                        u, v = divmod(pop_live(i), n)
                        ops.append(("delete", u, v, None))
                    else:
                        u, v = divmod(int(live[i]), n)
                        ops.append(("reweight", u, v, draw_weight()))
                    continue
                # insert: rejection-sample a non-edge (deterministic —
                # the rng draw sequence is fixed); dense graphs fall
                # back to a reweight after a bounded number of misses.
                placed = False
                for _attempt in range(32):
                    a, b = (int(x) for x in rng.integers(0, n, 2))
                    if a == b:
                        continue
                    u, v = (a, b) if a < b else (b, a)
                    key = u * n + v
                    if present(key):
                        continue
                    live[size] = key
                    size += 1
                    inserted.add(key)
                    ops.append(("insert", u, v, draw_weight()))
                    placed = True
                    break
                if not placed and size:
                    i = int(rng.integers(0, size))
                    u, v = divmod(int(live[i]), n)
                    ops.append(("reweight", u, v, draw_weight()))
            batches.append(UpdateBatch(ops=tuple(ops)))
        return cls(num_vertices=n, batches=tuple(batches), seed=seed)

    # -------------------------------------------------------------- #
    # recorded event log (JSONL)
    # -------------------------------------------------------------- #
    def save(self, path: "str | Path") -> Path:
        """Write the stream as a JSONL event log (header + one line per
        batch)."""
        out = Path(path)
        with open(out, "wt") as fh:
            header = {"version": _STREAM_LOG_VERSION,
                      "num_vertices": self.num_vertices}
            if self.seed is not None:
                header["seed"] = self.seed
            fh.write(json.dumps(header) + "\n")
            for batch in self.batches:
                fh.write(json.dumps(batch.to_doc()) + "\n")
        return out

    @classmethod
    def load(cls, path: "str | Path") -> "EdgeStream":
        """Replay a recorded event log.  A malformed log raises
        ``ValueError`` naming ``path:line``."""
        with open(path, "rt") as fh:
            lines = [(i, line) for i, line in enumerate(fh, 1)
                     if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty event log")
        docs = []
        for lineno, line in lines:
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: corrupt event log "
                                 f"line ({exc.msg})") from None
        where = f"{path}:{lines[0][0]}"
        header = docs[0] if isinstance(docs[0], dict) else {}
        if header.get("version") != _STREAM_LOG_VERSION:
            raise ValueError(f"{where}: unsupported event log version "
                             f"{header.get('version')!r}")
        try:
            num_vertices = _integer(header["num_vertices"], "num_vertices")
        except (KeyError, ValueError):
            raise ValueError(
                f"{where}: header has no integer num_vertices") from None
        batches = []
        for (lineno, _), doc in zip(lines[1:], docs[1:]):
            try:
                batches.append(UpdateBatch.from_doc(doc))
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad batch ({exc!r})") from None
        return cls(num_vertices=num_vertices, batches=tuple(batches),
                   seed=header.get("seed"))
