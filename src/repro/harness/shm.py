"""Zero-copy shared-memory graph plane.

Process-parallel grids used to stage every input graph through the
on-disk ``.npz`` cache: the parent serialised (deflate!) once and every
worker process read, decompressed and re-verified its own private copy.
For a resident worker fleet that is the wrong hot path — the graph is
immutable, so all workers can map *the same bytes*.  This module
publishes a :class:`~repro.graph.csr.CSRGraph`'s CSR arrays into one
:mod:`multiprocessing.shared_memory` segment keyed by the graph's
content fingerprint; fork or spawn workers attach by name and wrap the
mapping in read-only zero-copy array views
(:meth:`~repro.graph.csr.CSRGraph.from_buffers`), so warm-starting a
worker costs one ``mmap`` instead of one decompress-and-hash.  The
memory-layout discipline follows Birn et al. (arXiv:1302.4587): one
flat, aligned block per graph — ``indptr | indices | weights`` — that
every consumer addresses identically.  A graph published with its
sorted layout built carries it too — ``| rows | edges | seal``, its
:meth:`~repro.graph.csr.CSRGraph.sorted_row_order`,
:meth:`~repro.graph.csr.CSRGraph.sorted_edge_order` and their
:func:`~repro.graph.csr.layout_seal` — and an attach adopts it
(:meth:`~repro.graph.csr.CSRGraph.adopt_layout`), so no worker sorts
the graph again; a seal that does not hold leaves the layout to a lazy
build.

Lifecycle
---------
:class:`SharedGraphRegistry` owns segments *per process*:

* :meth:`~SharedGraphRegistry.publish` creates (or refcounts) the
  segment for a graph — publishing the same fingerprint twice bumps a
  reference count instead of copying again;
* :meth:`~SharedGraphRegistry.attach` maps a published segment into
  this process (memoised per process, so N cells in one worker pay one
  attach) — under ``fork`` the parent's own mapping is inherited and
  reused outright;
* :meth:`~SharedGraphRegistry.release` drops one reference and unlinks
  the segment at zero;
* :meth:`~SharedGraphRegistry.unlink_all` force-unlinks everything this
  process still owns — registered with :mod:`atexit` so an interrupted
  grid cannot leak ``/dev/shm`` entries, while a SIGKILLed *owner* is
  covered by multiprocessing's resource tracker.  Attachers explicitly
  unregister from the tracker (they do not own the segment), which is
  what keeps a crashed worker from tearing the segment out from under
  its siblings.

Orphans from past hard crashes are visible to ``repro-matching cache
ls`` and removed by ``cache clear`` (:func:`list_orphan_segments` /
:func:`unlink_segment`).

Telemetry: ``repro_shm_publish_total`` / ``repro_shm_attach_total`` /
``repro_shm_unlink_total`` count the registry's segment operations when
a metrics registry is active.

Configuration: ``REPRO_SHM=off|0|none|false`` disables the shared-
memory plane entirely (parallel staging falls back to the ``.npz``
cache); anything else — including unset — leaves it on where the
platform supports it.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry.spans import count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

    from repro.graph.csr import CSRGraph

__all__ = [
    "SHM_ENV",
    "SEGMENT_PREFIX",
    "SHM_PUBLISH_COUNTER",
    "SHM_ATTACH_COUNTER",
    "SHM_UNLINK_COUNTER",
    "SharedGraphSegment",
    "SharedGraphRegistry",
    "default_registry",
    "shm_enabled",
    "list_orphan_segments",
    "unlink_segment",
]

SHM_ENV = "REPRO_SHM"
_DISABLED_VALUES = {"off", "0", "none", "false"}

#: Segment names: ``repro_graph_<owner pid>_<fingerprint hex>``.  The pid
#: keeps two concurrent grid parents publishing the same graph from
#: colliding (each owns its segment; content is identical either way).
SEGMENT_PREFIX = "repro_graph_"

SHM_PUBLISH_COUNTER = "repro_shm_publish_total"
SHM_ATTACH_COUNTER = "repro_shm_attach_total"
SHM_UNLINK_COUNTER = "repro_shm_unlink_total"

_INT8 = np.dtype(np.int64).itemsize
#: ``layout_seal`` is a sha256 hex digest.
_SEAL_BYTES = 64

def _quiet_close(shm) -> None:
    """Close a ``SharedMemory`` handle even while views are exported.

    ``SharedMemory.close()`` (and its ``__del__``) raises ``BufferError``
    when zero-copy numpy views over the mapping are still alive — an
    unavoidable situation for an attacher whose graphs outlive the
    registry (records may reference them).  Dropping the Python-level
    ``memoryview``/``mmap`` wrappers instead defers the actual unmap to
    their C-level deallocation, which never raises: the views keep the
    mapping alive exactly as long as they need it, the file descriptor
    is released immediately, and ``__del__`` finds nothing left to
    close."""
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None
        shm.close()  # releases the fd; nothing else remains


def shm_enabled() -> bool:
    """Whether the shared-memory graph plane is on.

    Requires ``REPRO_SHM`` not to opt out *and* a usable
    ``multiprocessing.shared_memory`` implementation.
    """
    env = os.environ.get(SHM_ENV)
    if env is not None and env.lower() in _DISABLED_VALUES:
        return False
    try:  # pragma: no branch - import succeeds on every supported OS
        import multiprocessing.shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms only
        return False
    return True


@dataclass(frozen=True)
class SharedGraphSegment:
    """Picklable descriptor of one published graph segment.

    Everything a worker needs to attach: the segment ``name``, the
    array lengths that delimit the three-array layout
    (``indptr | indices | weights``), the content ``fingerprint`` the
    segment is keyed by, and ``layout_dtype``, the dtype of the sorted
    orders that follow (``""`` when the segment carries none).  Ships
    to workers inside the parallel executor's graph refs.
    """

    name: str
    fingerprint: str
    graph_name: str
    num_vertices: int
    num_entries: int
    layout_dtype: str = ""

    @property
    def nbytes(self) -> int:
        """Total segment payload size."""
        csr = (self.num_vertices + 1 + 2 * self.num_entries) * _INT8
        if not self.layout_dtype:
            return csr
        orders = self.num_entries + self.num_entries // 2
        return (csr + orders * np.dtype(self.layout_dtype).itemsize
                + _SEAL_BYTES)

    def _layout_views(self, buf) -> tuple[np.ndarray, np.ndarray, str]:
        """The stored ``(rows, edges, seal)`` as views over ``buf``."""
        dtype = np.dtype(self.layout_dtype)
        m = self.num_entries
        off = (self.num_vertices + 1 + 2 * m) * _INT8
        rows = np.frombuffer(buf, dtype, m, offset=off)
        off += rows.nbytes
        edges = np.frombuffer(buf, dtype, m // 2, offset=off)
        off += edges.nbytes
        seal = bytes(buf[off:off + _SEAL_BYTES])
        return rows, edges, seal.decode("ascii", "replace")


def _attach_untracked(name: str) -> "SharedMemory":
    """``SharedMemory(name=...)`` without resource-tracker registration.

    An attacher does not own the segment; letting its tracker register
    it would unlink the segment when *this* process exits, tearing it
    out from under the owner and every sibling worker (the well-known
    CPython gotcha that ``SharedMemory(track=False)`` fixes in 3.13).
    Register-then-unregister is not enough: sibling workers share one
    tracker process whose cache is a *set*, so paired register calls
    collapse and the extra unregisters both strip the owner's crash
    protection and spew ``KeyError`` tracebacks at tracker shutdown.
    Instead the register call is suppressed for the duration of the
    attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


class SharedGraphRegistry:
    """Reference-counted per-process registry of shared graph segments.

    One registry per process is the intended shape
    (:func:`default_registry`); ad-hoc instances work and are useful in
    tests, each cleaning up after itself via ``atexit``.

    ``publishes`` / ``attaches`` / ``unlinks`` count operations over
    the registry's lifetime (the parallel executor and the tests read
    them); the same counts are exported as the ``repro_shm_*_total``
    telemetry counters.
    """

    def __init__(self) -> None:
        #: fingerprint -> (SharedMemory, SharedGraphSegment, refcount)
        self._published: dict[str, list] = {}
        #: segment name -> (SharedMemory | None, CSRGraph) attach memo
        self._attached: dict[str, tuple] = {}
        self.publishes = 0
        self.attaches = 0
        self.unlinks = 0
        atexit.register(self.unlink_all)

    # -------------------------------------------------------------- #
    # owner side
    # -------------------------------------------------------------- #

    def publish(self, graph: "CSRGraph",
                fingerprint: str | None = None) -> SharedGraphSegment:
        """Publish ``graph``'s CSR arrays, and its sorted layout when
        built; returns the attach descriptor.

        Keyed by content: publishing a graph whose fingerprint is
        already live bumps that segment's reference count and returns
        the existing descriptor — the bytes are copied exactly once per
        process however many overlapping grids stage the same input.
        """
        from multiprocessing.shared_memory import SharedMemory

        from repro.graph.csr import layout_seal

        if fingerprint is None:
            from repro.telemetry.provenance import graph_fingerprint

            fingerprint = graph_fingerprint(graph)
        entry = self._published.get(fingerprint)
        if entry is not None:
            entry[2] += 1
            return entry[1]

        indptr, indices, weights = graph.export_buffers()
        layout = graph.built_layout()
        seg = SharedGraphSegment(
            name=f"{SEGMENT_PREFIX}{os.getpid()}_"
                 f"{fingerprint.split(':', 1)[-1]}",
            fingerprint=fingerprint,
            graph_name=graph.name,
            num_vertices=graph.num_vertices,
            num_entries=graph.num_directed_edges,
            layout_dtype="" if layout is None else layout[0].dtype.str,
        )
        shm = SharedMemory(name=seg.name, create=True,
                           size=max(seg.nbytes, 1))
        n1, m = seg.num_vertices + 1, seg.num_entries
        buf = shm.buf
        np.frombuffer(buf, np.int64, n1)[:] = indptr
        np.frombuffer(buf, np.int64, m, offset=n1 * _INT8)[:] = indices
        np.frombuffer(buf, np.float64, m,
                      offset=(n1 + m) * _INT8)[:] = weights
        if layout is not None:
            rows, edges, _ = seg._layout_views(buf)
            rows[:] = layout[0]
            edges[:] = layout[1]
            end = seg.nbytes
            buf[end - _SEAL_BYTES:end] = layout_seal(
                *layout, fingerprint).encode("ascii")
        self._published[fingerprint] = [shm, seg, 1]
        self.publishes += 1
        count(SHM_PUBLISH_COUNTER, 1,
              "Graph segments published into shared memory.")
        return seg

    def release(self, fingerprint: str) -> bool:
        """Drop one reference; unlink the segment when none remain.

        Returns True when this call unlinked the segment.  Releasing an
        unknown fingerprint is a no-op (the segment may already have
        been force-unlinked by :meth:`unlink_all`).
        """
        entry = self._published.get(fingerprint)
        if entry is None:
            return False
        entry[2] -= 1
        if entry[2] > 0:
            return False
        del self._published[fingerprint]
        self._unlink(entry[0])
        return True

    def _unlink(self, shm: "SharedMemory") -> None:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        # Zero-copy views over the mapping may still be alive (e.g. the
        # publishing process also attached).  The name is gone and the
        # kernel frees the memory when the last map drops.
        _quiet_close(shm)
        self.unlinks += 1
        count(SHM_UNLINK_COUNTER, 1,
              "Shared-memory graph segments unlinked.")

    def unlink_all(self) -> int:
        """Force-unlink every segment this process owns (atexit hook).

        Also quiet-closes attach-side handles so an attacher process
        exits without ``SharedMemory.__del__`` noise (graphs handed out
        by :meth:`attach` stay valid — their views pin the mapping).
        Safe to call repeatedly; returns the number unlinked.
        """
        n = 0
        for entry in list(self._published.values()):
            self._unlink(entry[0])
            n += 1
        self._published.clear()
        self.detach_all()
        return n

    def detach_all(self) -> None:
        """Quiet-close every attach-side handle and forget the attach
        memo; owned segments stay published.  Graphs handed out by
        :meth:`attach` stay valid — their views pin the mapping."""
        for keep, _graph in self._attached.values():
            if keep is not None:
                _quiet_close(keep)
        self._attached.clear()

    # -------------------------------------------------------------- #
    # attacher side
    # -------------------------------------------------------------- #

    def attach(self, segment: SharedGraphSegment) -> "CSRGraph":
        """Zero-copy :class:`CSRGraph` over a published segment.

        A segment that carries a sorted layout seeds the graph's layout
        memo with it (the orders stay views over the segment), so the
        graph is not sorted again; a seal that does not match leaves
        the layout to be built lazily, as on any graph.

        Memoised per (process, segment name): the first call maps the
        segment, later calls return the same graph object.  When this
        process *owns* the segment (or inherited the owner's registry
        state over ``fork``), the owner's mapping is reused without a
        second attach.  Raises ``FileNotFoundError`` when the segment
        no longer exists — callers fall back to the ``.npz`` path.
        """
        from repro.graph.csr import CSRGraph

        memo = self._attached.get(segment.name)
        if memo is not None:
            return memo[1]

        owned = self._published.get(segment.fingerprint)
        if owned is not None and owned[1].name == segment.name:
            shm, keep = owned[0], None
        else:
            shm = _attach_untracked(segment.name)
            keep = shm
        n1, m = segment.num_vertices + 1, segment.num_entries
        buf = shm.buf
        graph = CSRGraph.from_buffers(
            np.frombuffer(buf, np.int64, n1),
            np.frombuffer(buf, np.int64, m, offset=n1 * _INT8),
            np.frombuffer(buf, np.float64, m, offset=(n1 + m) * _INT8),
            name=segment.graph_name,
        )
        if segment.layout_dtype:
            graph.adopt_layout(*segment._layout_views(buf),
                               segment.fingerprint)
        # ``keep`` anchors the mapping for the life of the memo (the
        # numpy views alone keep the mmap alive, but holding the handle
        # makes the dependency explicit and debuggable).
        self._attached[segment.name] = (keep, graph)
        self.attaches += 1
        count(SHM_ATTACH_COUNTER, 1,
              "Shared-memory graph segment attaches (cold only).")
        return graph

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    def segments(self) -> list[SharedGraphSegment]:
        """Descriptors of every segment this registry currently owns."""
        return [entry[1] for entry in self._published.values()]

    def refcount(self, fingerprint: str) -> int:
        """Live references on ``fingerprint`` (0 = not published)."""
        entry = self._published.get(fingerprint)
        return entry[2] if entry is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SharedGraphRegistry(owned={len(self._published)}, "
                f"attached={len(self._attached)}, "
                f"publishes={self.publishes}, attaches={self.attaches})")


_DEFAULT: SharedGraphRegistry | None = None


def default_registry() -> SharedGraphRegistry:
    """The process-wide registry the parallel executor stages through."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SharedGraphRegistry()
    return _DEFAULT


# ------------------------------------------------------------------ #
# orphan maintenance (CLI `cache` integration)
# ------------------------------------------------------------------ #


def _shm_dir() -> Path | None:
    d = Path("/dev/shm")
    return d if d.is_dir() else None


def list_orphan_segments() -> list[tuple[str, int]]:
    """``(name, bytes)`` of every ``repro_graph_*`` segment on the host.

    Includes live segments of running grids as well as true orphans
    from hard crashes — the CLI labels them; only ``cache clear``
    removes them.  Empty on platforms without a visible ``/dev/shm``.
    """
    d = _shm_dir()
    if d is None:  # pragma: no cover - non-Linux
        return []
    out = []
    for p in sorted(d.glob(f"{SEGMENT_PREFIX}*")):
        try:
            out.append((p.name, p.stat().st_size))
        except OSError:  # pragma: no cover - raced with unlink
            continue
    return out


def unlink_segment(name: str) -> bool:
    """Unlink one segment by name; True when it existed.

    Orphan cleanup for segments this process never registered — the
    implicit unregister inside ``SharedMemory.unlink`` is suppressed so
    the shared tracker does not log a spurious ``KeyError``.
    """
    from multiprocessing import resource_tracker

    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    orig = resource_tracker.unregister
    resource_tracker.unregister = lambda *a, **kw: None
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with owner
        return False
    finally:
        resource_tracker.unregister = orig
        try:
            shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass
    return True
