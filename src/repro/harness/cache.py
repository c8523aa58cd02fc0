"""On-disk graph cache keyed by the provenance dataset fingerprint.

Synthetic analogs are deterministic but not free — an RMAT or k-mer
generation costs seconds at analog scale.  A grid of N cells over one
dataset must pay that cost once, not N times, and worker *processes*
(which do not share the parent's ``lru_cache``) must not pay it at all.
The cache stores each graph as a ``.npz`` snapshot named by its
:func:`~repro.telemetry.provenance.graph_fingerprint` — the same
content hash every :class:`~repro.engine.record.RunRecord` carries in
its provenance manifest — so an entry can never silently drift from the
graph it claims to be: the fingerprint is re-derived from the loaded
arrays and verified on first read (memoised per process thereafter —
entries are content-addressed, so a verified path stays verified).

Configuration (all overridable per :class:`GraphCache` instance):

* ``REPRO_GRAPH_CACHE`` — cache directory (default
  ``~/.cache/repro-matching/graphs``); the values ``off``/``0``/
  ``none`` disable disk caching entirely (parallel executors fall back
  to shipping graphs by pickle).
* ``REPRO_GRAPH_CACHE_ENTRIES`` — eviction knob: keep at most this many
  snapshots, oldest-used dropped first (default 64).
"""

from __future__ import annotations

import os
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = ["GraphCache", "default_cache_root", "cache_disabled"]

_ENV_ROOT = "REPRO_GRAPH_CACHE"
_ENV_ENTRIES = "REPRO_GRAPH_CACHE_ENTRIES"
_DISABLED_VALUES = {"off", "0", "none", "false"}
_DEFAULT_MAX_ENTRIES = 64

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


class GraphCache:
    """Fingerprint-verified ``.npz`` store for :class:`CSRGraph`\\ s.

    ``hits``/``misses`` count reads served from disk versus builds; the
    parallel executor and the benchmark harness report them, and the
    test suite asserts on them.
    """

    def __init__(self, root: "Path | str | None" = None,
                 max_entries: int | None = None) -> None:
        self.root = Path(root) if root is not None else \
            default_cache_root()
        if max_entries is None:
            max_entries = int(os.environ.get(_ENV_ENTRIES,
                                             _DEFAULT_MAX_ENTRIES))
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    # -------------------------------------------------------------- #
    # paths and keys
    # -------------------------------------------------------------- #

    def path_for(self, name: str, fingerprint: str) -> Path:
        """Snapshot path of graph ``name`` with content ``fingerprint``."""
        fp = fingerprint.split(":", 1)[-1]
        return self.root / f"{_slug(name)}-{fp}.npz"

    def entries(self) -> list[Path]:
        """Every snapshot currently on disk, oldest-accessed first."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.npz"),
                      key=lambda p: p.stat().st_mtime)

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
        tmp = path.with_suffix(".tmp.npz")
        save_npz(graph, tmp)
        os.replace(tmp, path)  # atomic vs concurrent producers
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
        atomically, so a verified path cannot silently change meaning).
        """
        from repro.graph.io import load_npz
        from repro.telemetry.provenance import graph_fingerprint

        try:
            graph = load_npz(path)
        except (zipfile.BadZipFile, EOFError, KeyError, zlib.error) as exc:
            raise ValueError(
                f"graph cache entry {path} is corrupt: unreadable ({exc})"
            ) from exc
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
        self.hits += 1
        return graph

    def get_or_build(self, name: str,
                     build: Callable[[], "CSRGraph"],
                     expect: str | None = None) -> "CSRGraph":
        """The cached graph named ``name``, building (and storing) on
        miss.

        Every hit is integrity-verified: the fingerprint in the entry's
        filename is re-derived from the loaded arrays, so a truncated
        or hand-edited snapshot is rebuilt, never returned.  Pass
        ``expect`` (a known :func:`graph_fingerprint` value, as the
        parallel executor does) to additionally require *that exact
        content* — without it, a stale entry from an older generator
        version of the same dataset name is indistinguishable from a
        fresh one.  A corrupt candidate is deleted before the rebuild,
        so the rebuilt graph replaces it on disk.
        """
        if expect is not None:
            candidates = [self.path_for(name, expect)]
        elif self.root.is_dir():
            candidates = sorted(self.root.glob(f"{_slug(name)}-*.npz"),
                                key=lambda p: p.stat().st_mtime,
                                reverse=True)
        else:
            candidates = []
        for path in candidates:
            if not path.is_file():
                continue
            fp = expect if expect is not None \
                else "sha256:" + path.stem.rsplit("-", 1)[-1]
            try:
                graph = self.load(path, fp)
            except ValueError:
                path.unlink(missing_ok=True)
                continue
            except OSError:
                continue
            path.touch()
            return graph
        self.misses += 1
        graph = build()
        self.store(graph)
        return graph

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #

    def evict(self) -> int:
        """Drop oldest-used entries beyond ``max_entries``; returns the
        number removed."""
        entries = self.entries()
        removed = 0
        while len(entries) - removed > self.max_entries:
            try:
                entries[removed].unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                pass
            removed += 1
        return removed

    def clear(self) -> None:
        """Remove every snapshot."""
        for path in self.entries():
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GraphCache(root={str(self.root)!r}, "
                f"entries={len(self.entries())}, hits={self.hits}, "
                f"misses={self.misses})")
