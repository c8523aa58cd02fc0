"""On-disk graph cache keyed by the provenance dataset fingerprint.

Synthetic analogs are deterministic but not free — an RMAT or k-mer
generation, and the sorted layout built on it, cost most of a second
at analog scale.  A grid of N cells over one dataset must pay that cost
once, not N times; worker *processes* (which do not share the parent's
``lru_cache``) and later sessions must not pay it at all.
The cache stores each graph as a ``.npz`` snapshot named by its
:func:`~repro.telemetry.provenance.graph_fingerprint` — the same
content hash every :class:`~repro.engine.record.RunRecord` carries in
its provenance manifest — so an entry can never silently drift from the
graph it claims to be: the fingerprint is re-derived from the loaded
arrays and verified on first read (memoised per process thereafter —
entries are content-addressed, so a verified path stays verified).
A snapshot also carries the graph's sorted layout when it was built,
adopted on load only when its seal matches
(:meth:`~repro.graph.csr.CSRGraph.adopt_layout`); a snapshot reached
through a recipe reference without one gets its layout sorted and is
rewritten with it.

A fingerprint is known only once a graph exists, so
:func:`~repro.harness.datasets.load_dataset` finds its snapshot through
a *recipe reference*: a small ``<dataset>-<key>.ref`` file naming the
snapshot, where the key hashes everything the graph could depend on
(see :meth:`GraphCache.get_recipe`).  Every file is written under a
name unique to its writer, ending in ``.tmp``, and renamed into place,
so concurrent producers never tear an entry and no glob of entries
sees one in flight.

Configuration (all overridable per :class:`GraphCache` instance):

* ``REPRO_GRAPH_CACHE`` — cache directory (default
  ``~/.cache/repro-matching/graphs``); the values ``off``/``0``/
  ``none`` disable disk caching entirely (dataset loaders generate
  every graph, parallel executors fall back to shipping graphs by
  pickle).
* ``REPRO_GRAPH_CACHE_ENTRIES`` — eviction knob: keep at most this many
  snapshots (and as many recipe references), oldest-used dropped first
  (default 64).  It counts files, not bytes: snapshots are stored
  uncompressed, with their layout (63.9 MB for the four sweep
  analogs).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import uuid
import zipfile
import zlib
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = ["GraphCache", "default_cache_root", "cache_disabled"]

_ENV_ROOT = "REPRO_GRAPH_CACHE"
_ENV_ENTRIES = "REPRO_GRAPH_CACHE_ENTRIES"
_DISABLED_VALUES = {"off", "0", "none", "false"}
_DEFAULT_MAX_ENTRIES = 64
#: What a recipe reference may name: a fingerprint, never a path.
_FINGERPRINT = re.compile(r"sha256:[0-9a-f]+")

#: ``(realpath, fingerprint)`` pairs this process has already verified.
#: Snapshots are content-addressed and written atomically, so a path
#: that once hashed to its fingerprint stays valid for the life of the
#: process — re-deriving the hash on every warm load was pure overhead
#: (shared across :class:`GraphCache` instances by design: they are
#: cheap throwaway handles over the same directory).
_VERIFIED: set[tuple[str, str]] = set()


def default_cache_root() -> Path:
    """The configured cache directory (ignoring the disable sentinel)."""
    env = os.environ.get(_ENV_ROOT)
    if env and env.lower() not in _DISABLED_VALUES:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-matching" / "graphs"


def cache_disabled() -> bool:
    """True when ``REPRO_GRAPH_CACHE`` opts out of disk caching."""
    env = os.environ.get(_ENV_ROOT)
    return env is not None and env.lower() in _DISABLED_VALUES


def _slug(name: str) -> str:
    """Filesystem-safe stem for a graph name."""
    return "".join(c if (c.isalnum() or c in "-_.") else "_"
                   for c in name) or "graph"


def _publish(path: Path, write: Callable[[IO[bytes]], None]) -> None:
    """Write ``path`` atomically: ``write`` fills a temporary file whose
    name is unique to this writer and matches no ``*.npz`` or ``*.ref``
    glob, which is then renamed into place."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _count(outcome: str) -> None:
    from repro.telemetry.spans import count

    count("repro_graph_cache_total", 1,
          "dataset loads by graph-cache outcome", outcome=outcome)


class GraphCache:
    """Fingerprint-verified ``.npz`` store for :class:`CSRGraph`\\ s.

    Datasets are served by recipe reference (:meth:`get_recipe`); the
    parallel executor stores a graph (:meth:`store`) and its workers
    load it by path and fingerprint (:meth:`load`).  Each
    :meth:`get_recipe` decision is counted as
    ``repro_graph_cache_total{outcome}``.
    """

    def __init__(self, root: "Path | str | None" = None,
                 max_entries: int | None = None) -> None:
        self.root = Path(root) if root is not None else \
            default_cache_root()
        if max_entries is None:
            max_entries = int(os.environ.get(_ENV_ENTRIES,
                                             _DEFAULT_MAX_ENTRIES))
        self.max_entries = max_entries

    # -------------------------------------------------------------- #
    # paths and keys
    # -------------------------------------------------------------- #

    def path_for(self, name: str, fingerprint: str) -> Path:
        """Snapshot path of graph ``name`` with content ``fingerprint``."""
        fp = fingerprint.split(":", 1)[-1]
        return self.root / f"{_slug(name)}-{fp}.npz"

    def entries(self, pattern: str = "*.npz") -> list[Path]:
        """Every snapshot (or, with ``"*.ref"``, every recipe
        reference) currently on disk, oldest-accessed first."""
        stamped = []
        for path in self.root.glob(pattern):
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:  # removed by a concurrent evictor
                continue
        return [path for _, path in sorted(stamped)]

    # -------------------------------------------------------------- #
    # store / load
    # -------------------------------------------------------------- #

    def store(self, graph: "CSRGraph") -> tuple[Path, str]:
        """Snapshot ``graph``; returns ``(path, fingerprint)``.

        Idempotent: an existing entry for the same content is touched
        (refreshing its eviction rank), not rewritten.
        """
        from repro.graph.io import save_npz
        from repro.telemetry.provenance import graph_fingerprint

        fingerprint = graph_fingerprint(graph)
        path = self.path_for(graph.name, fingerprint)
        if path.is_file():
            path.touch()
            return path, fingerprint
        self.root.mkdir(parents=True, exist_ok=True)
        _publish(path, lambda fh: save_npz(graph, fh))
        self.evict()
        return path, fingerprint

    def load(self, path: "Path | str",
             fingerprint: str | None = None) -> "CSRGraph":
        """Load a snapshot, verifying content against ``fingerprint``.

        Raises ``ValueError`` on an unreadable (truncated) file or a
        fingerprint mismatch (stale file) — callers should rebuild
        rather than trust the entry.
        Verification is memoised per ``(path, fingerprint)`` within the
        process: a worker loading the same snapshot for its second cell
        skips the re-hash (entries are content-addressed and written
        atomically, so a verified path cannot silently change meaning),
        and the graph's fingerprint memo is seeded either way.  With a
        ``fingerprint``, a stored sorted layout is adopted when its seal
        holds; otherwise the layout is built lazily on first use.
        """
        return self._load(path, fingerprint)[0]

    def _load(self, path: "Path | str",
              fingerprint: str | None) -> tuple["CSRGraph", bool]:
        """:meth:`load`, plus whether a stored layout was adopted
        (never without a fingerprint to check it by)."""
        from repro.graph.io import read_npz
        from repro.telemetry.provenance import graph_fingerprint

        try:
            graph, layout = read_npz(path)
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError,
                zlib.error) as exc:
            raise ValueError(
                f"graph cache entry {path} is corrupt: unreadable ({exc})"
            ) from exc
        adopted = False
        if fingerprint is not None:
            memo_key = (os.path.realpath(os.fspath(path)), fingerprint)
            if memo_key not in _VERIFIED:
                actual = graph_fingerprint(graph)
                if actual != fingerprint:
                    raise ValueError(
                        f"graph cache entry {path} is corrupt: expected "
                        f"{fingerprint}, loaded content hashes to {actual}"
                    )
                _VERIFIED.add(memo_key)
            # The memo graph_fingerprint reads: this content is verified.
            graph._memoised(
                "_fingerprint", (graph.indptr, graph.indices, graph.weights),
                lambda: fingerprint)
            if layout is not None:
                adopted = graph.adopt_layout(*layout, fingerprint)
        return graph, adopted

    def get_recipe(self, key: str,
                   build: Callable[[], "CSRGraph"]) -> "CSRGraph":
        """The graph ``build()`` makes, served from the snapshot that
        the recipe reference ``key`` names.

        ``key`` must change whenever ``build()``'s output could; that
        is the caller's half of the contract (see
        :func:`~repro.harness.datasets.load_dataset`).  Each call counts
        one ``repro_graph_cache_total{outcome}``:

        * ``hit`` — the reference names a snapshot that verifies and
          its stored layout is adopted;
        * ``layout_rebuilt`` — the snapshot verifies but carries no
          layout (the previous format's) or one whose seal does not
          hold: the layout is sorted now and the snapshot rewritten
          with it, so the next load adopts it;
        * ``miss`` — no reference, or its snapshot is gone: the graph
          is built, its layout sorted, and both the snapshot and the
          reference written;
        * ``corrupt`` — the reference or the snapshot is unreadable or
          fails verification: the snapshot is deleted, then as a miss.

        A miss never serves another graph, and a cache that cannot be
        written still serves the built graph.
        """
        from repro.graph.io import save_npz

        ref = self.root / f"{_slug(key)}.ref"
        path = None
        try:
            doc = json.loads(ref.read_bytes())
            fingerprint = str(doc["fingerprint"])
            if not _FINGERPRINT.fullmatch(fingerprint):
                raise ValueError(f"{ref}: bad fingerprint {fingerprint!r}")
            path = self.path_for(str(doc["graph"]), fingerprint)
            graph, adopted = self._load(path, fingerprint)
        except OSError:
            outcome = "miss"
        except (ValueError, KeyError, TypeError):
            outcome = "corrupt"
            if path is not None:
                with contextlib.suppress(OSError):
                    path.unlink(missing_ok=True)
        else:
            outcome = "hit"
            try:
                if not adopted:
                    outcome = "layout_rebuilt"
                    graph.sorted_row_order()
                    _publish(path, lambda fh: save_npz(graph, fh))
                os.utime(path)
                os.utime(ref)
            except OSError:  # pragma: no cover - read-only cache
                pass
            _count(outcome)
            return graph
        _count(outcome)
        graph = build()
        graph.sorted_row_order()  # the snapshot carries the layout
        try:
            path, fingerprint = self.store(graph)
            doc = {"graph": graph.name, "fingerprint": fingerprint}
            _publish(ref, lambda fh: fh.write(json.dumps(doc).encode()))
        except OSError:  # pragma: no cover - unwritable cache
            pass
        return graph

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #

    def evict(self) -> int:
        """Drop oldest-used snapshots beyond ``max_entries`` (recipe
        references likewise); returns the number of snapshots
        removed."""
        for pattern in ("*.ref", "*.npz"):
            entries = self.entries(pattern)
            excess = entries[:max(len(entries) - self.max_entries, 0)]
            for path in excess:
                path.unlink(missing_ok=True)
        return len(excess)

    def clear(self) -> None:
        """Remove every snapshot and recipe reference."""
        for path in self.entries() + self.entries("*.ref"):
            path.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GraphCache(root={str(self.root)!r}, "
                f"entries={len(self.entries())})")
