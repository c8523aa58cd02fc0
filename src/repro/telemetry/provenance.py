"""Run provenance — the manifest that makes stored results self-describing.

A sweep output read six months later must answer "what produced this?"
without the producing checkout: code version (``git describe`` when the
tree is a git checkout), interpreter and NumPy versions, host platform,
the RNG seed, and a content fingerprint of the input graph.  The engine
attaches one manifest to every :class:`~repro.engine.record.RunRecord`
(serialised under the ``provenance`` key, record schema v2) and the
metrics exporters embed it in the JSON metrics document.
"""

from __future__ import annotations

import hashlib
import platform as _platform
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "git_describe",
    "graph_fingerprint",
    "build_manifest",
]

#: Bump when manifest keys change incompatibly.
PROVENANCE_SCHEMA_VERSION = 1

#: Array prefix/suffix length hashed by :func:`graph_fingerprint` —
#: enough to distinguish real inputs without touching every byte of a
#: billion-edge graph.
_FINGERPRINT_SAMPLE = 256


@lru_cache(maxsize=1)
def git_describe() -> str | None:
    """``git describe --always --dirty`` of the source tree, or ``None``
    when the tree is not a git checkout (e.g. an installed wheel)."""
    import os
    import subprocess

    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _hash_array(h: "hashlib._Hash", arr) -> None:
    """Feed an array's shape, dtype, edges and checksum into ``h``."""
    import numpy as np

    a = np.ascontiguousarray(arr)
    h.update(str(a.shape).encode())
    h.update(str(a.dtype).encode())
    k = _FINGERPRINT_SAMPLE
    h.update(a[:k].tobytes())
    h.update(a[-k:].tobytes())
    # A cheap whole-array checksum catches interior edits the sampled
    # prefix/suffix would miss.
    h.update(np.asarray(a.view(np.uint8).sum(dtype=np.uint64)).tobytes())


def graph_fingerprint(graph: "CSRGraph") -> str:
    """Deterministic content hash of a CSR graph (name-independent).

    Covers ``indptr``, ``indices`` and ``weights`` via sampled bytes plus
    whole-array checksums — two graphs with the same fingerprint carry
    the same topology and weights for all practical purposes.  The
    checksums read every byte, so the hash is memoised on the graph
    like its other derived values: computed once per graph object and
    recomputed when one of the three arrays is reassigned.  A
    :class:`~repro.harness.cache.GraphCache` load given a fingerprint
    seeds the memo with that verified value (hashed once per snapshot
    path and process); pickling and a shared-memory attach drop it.
    """
    return graph._memoised(
        "_fingerprint", (graph.indptr, graph.indices, graph.weights),
        lambda: _hash_graph(graph))


def _hash_graph(graph: "CSRGraph") -> str:
    h = hashlib.sha256()
    h.update(f"v={graph.num_vertices};e={graph.num_directed_edges};"
             .encode())
    for arr in (graph.indptr, graph.indices, graph.weights):
        _hash_array(h, arr)
    return f"sha256:{h.hexdigest()[:32]}"


def build_manifest(
    graph: "CSRGraph | None" = None,
    seed: int | None = None,
    dataset: str | None = None,
    sim_platform: str | None = None,
    wall_time_s: float | None = None,
    sim_time_s: float | None = None,
    dataset_cache: str | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """The provenance manifest attached to every run record.

    All inputs are optional; absent facts serialise as ``None`` so the
    key set is stable across producers (CLI runs, sweeps, tests).
    ``dataset_cache`` names the on-disk
    :class:`~repro.harness.cache.GraphCache` root when input graphs
    were staged through it (parallel grids, bench suites) — ``None``
    means graphs were built in-process.  Cache entries are keyed by the
    same :func:`graph_fingerprint` recorded here as
    ``dataset_fingerprint``, so the manifest pins the exact bytes a
    cached run consumed.
    """
    import numpy as np

    manifest: dict[str, Any] = {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "git": git_describe(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "host_platform": _platform.platform(),
        "sim_platform": sim_platform,
        "dataset": dataset,
        "dataset_fingerprint": graph_fingerprint(graph)
        if graph is not None else None,
        "seed": seed,
        "wall_time_s": wall_time_s,
        "sim_time_s": sim_time_s,
        "dataset_cache": dataset_cache,
    }
    manifest.update(extra)
    return manifest
