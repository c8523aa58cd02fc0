"""Graph I/O: Matrix Market and a binary CSR snapshot format.

The paper ingests SuiteSparse matrices (Matrix Market) and notes that
SR-OMP *requires* the native Matrix Market format — which is why the
uk-2007-05 / webbase-2001 rows lack SR-OMP numbers in Table I.  We implement
a reader/writer for the coordinate (``%%MatrixMarket matrix coordinate``)
format covering the symmetry and field variants that occur in practice,
plus a fast ``.npz`` snapshot for benchmark caching.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph, GraphFormatError, layout_seal

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "save_npz",
    "read_npz",
]

_FIELDS = {"real", "integer", "pattern", "double"}
_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def read_matrix_market(path_or_file, name: str | None = None) -> CSRGraph:
    """Read a Matrix Market coordinate file as an undirected graph.

    * ``pattern`` matrices get unit weights (reweight afterwards, as the
      paper does with uniform(0, 1] samples).
    * Diagonal entries are dropped; ``general`` matrices are symmetrised.
    * Non-positive values are mapped to their absolute value, with exact
      zeros bumped to the smallest positive weight present (SuiteSparse
      convention for magnitude-based matching).

    A malformed file raises :class:`GraphFormatError`; a bad size line
    or entry, including a vertex id that is not an integer (``2.5``),
    is named as ``path:line``.
    """
    close = False
    if isinstance(path_or_file, (str, os.PathLike)):
        fh = open(path_or_file, "rt")
        close = True
        default_name = Path(path_or_file).stem
        where = os.fspath(path_or_file)
    else:
        fh = path_or_file
        default_name = "mtx"
        where = getattr(path_or_file, "name", "<stream>")
    try:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError("missing %%MatrixMarket header")
        parts = header.strip().split()
        if len(parts) < 5 or parts[1] != "matrix" or parts[2] != "coordinate":
            raise GraphFormatError(f"unsupported header: {header.strip()}")
        field, symmetry = parts[3].lower(), parts[4].lower()
        if field not in _FIELDS:
            raise GraphFormatError(f"unsupported field: {field}")
        if symmetry not in _SYMMETRIES:
            raise GraphFormatError(f"unsupported symmetry: {symmetry}")

        line = fh.readline()
        lineno = 2
        while line.startswith("%") or not line.strip():
            if not line:
                raise GraphFormatError(f"{where}: missing size line")
            line = fh.readline()
            lineno += 1
        try:
            nrows, ncols, nnz = (int(x) for x in line.split()[:3])
        except ValueError:
            raise GraphFormatError(
                f"{where}:{lineno}: bad size line {line.strip()!r}"
            ) from None
        if nrows != ncols:
            raise GraphFormatError("matrix must be square")

        body = fh.read()
    finally:
        if close:
            fh.close()

    if nnz == 0:
        return CSRGraph.empty(nrows, name or default_name)

    try:
        data = np.loadtxt(io.StringIO(body), ndmin=2)
    except ValueError as exc:
        raise _bad_entry(body, lineno + 1, where, exc) from None
    if data.shape[0] != nnz:
        raise GraphFormatError(
            f"{where}: expected {nnz} entries, found {data.shape[0]}"
        )
    if data.shape[1] < 2:
        raise GraphFormatError(
            f"{where}:{_entry_line(body, lineno + 1, 0)[0]}: entry has "
            f"{data.shape[1]} field, expected 2 or more")
    ids = data[:, :2]
    bad = np.flatnonzero(~np.all(np.isfinite(ids) & (ids == np.trunc(ids)),
                                 axis=1))
    if len(bad):
        at, line = _entry_line(body, lineno + 1, int(bad[0]))
        raise GraphFormatError(
            f"{where}:{at}: non-integral vertex id {line!r}")
    rows = data[:, 0].astype(np.int64) - 1
    cols = data[:, 1].astype(np.int64) - 1
    if field == "pattern":
        vals = np.ones(nnz, dtype=np.float64)
    else:
        if data.shape[1] < 3:
            raise GraphFormatError("missing value column")
        vals = np.abs(data[:, 2].astype(np.float64))
        if np.any(vals == 0):
            positive = vals[vals > 0]
            floor = positive.min() if len(positive) else 1.0
            vals = np.where(vals == 0, floor, vals)

    return from_coo(rows, cols, vals, num_vertices=nrows,
                    name=name or default_name)


def _bad_entry(body: str, first_line: int, where: str,
               exc: ValueError) -> GraphFormatError:
    """The error for the first entry line of ``body`` that
    ``np.loadtxt`` cannot parse (file line ``first_line`` onwards)."""
    width = None
    for lineno, line in enumerate(body.splitlines(), first_line):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            [float(x) for x in fields]
        except ValueError:
            return GraphFormatError(
                f"{where}:{lineno}: non-numeric entry {line.strip()!r}")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            return GraphFormatError(
                f"{where}:{lineno}: entry has {len(fields)} fields, "
                f"expected {width}")
    return GraphFormatError(f"{where}: unreadable entries ({exc})")


def _entry_line(body: str, first_line: int, index: int) -> tuple[int, str]:
    """File line number and text of entry ``index`` (0-based) of
    ``body``, whose first line is file line ``first_line``; lines that
    are blank or ``#`` comments, which ``np.loadtxt`` skips, hold no
    entry."""
    for lineno, line in enumerate(body.splitlines(), first_line):
        if line.split("#", 1)[0].split():
            if index == 0:
                return lineno, line.strip()
            index -= 1
    raise IndexError(index)


def write_matrix_market(graph: CSRGraph, path) -> None:
    """Write as ``coordinate real symmetric`` (lower triangle)."""
    u, v, w = graph.edge_array()
    with open(path, "wt") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"% generated by repro from graph {graph.name!r}\n")
        n = graph.num_vertices
        fh.write(f"{n} {n} {len(u)}\n")
        # symmetric MM stores the lower triangle: row >= col.
        for a, b, x in zip(v + 1, u + 1, w):
            fh.write(f"{a} {b} {x:.17g}\n")


def save_npz(graph: CSRGraph, path) -> None:
    """Binary CSR snapshot — fast cache for benchmark datasets.

    Stored uncompressed: a snapshot is a cache, and deflate made one
    ~40x slower to write and ~3x slower to read for ~5x less disk.
    When the graph has built its sorted layout
    (:meth:`~repro.graph.csr.CSRGraph.built_layout`), the snapshot
    also carries its two orders and their
    :func:`~repro.graph.csr.layout_seal`, so a loader can adopt them
    (:func:`read_npz`) instead of sorting again.  ``path`` may be an
    open binary file.
    """
    arrays = dict(indptr=graph.indptr, indices=graph.indices,
                  weights=graph.weights, name=np.array(graph.name))
    layout = graph.built_layout()
    if layout is not None:
        from repro.telemetry.provenance import graph_fingerprint

        rows, edges = layout
        arrays.update(
            sorted_row_order=rows, sorted_edge_order=edges,
            layout_seal=np.array(
                layout_seal(rows, edges, graph_fingerprint(graph))))
    np.savez(path, **arrays)


def read_npz(path) -> tuple[CSRGraph, tuple | None]:
    """A snapshot's graph and its stored layout, ``(sorted_row_order,
    sorted_edge_order, seal)``, or ``None`` for a snapshot without one.
    The layout is not checked here: hand it to
    :meth:`~repro.graph.csr.CSRGraph.adopt_layout` with the graph's
    verified fingerprint."""
    with np.load(path, allow_pickle=False) as data:
        graph = _snapshot_graph(data)
        if "layout_seal" not in data.files:
            return graph, None
        return graph, (data["sorted_row_order"],
                       data["sorted_edge_order"],
                       str(data["layout_seal"]))


def _snapshot_graph(data) -> CSRGraph:
    return CSRGraph(data["indptr"], data["indices"], data["weights"],
                    str(data["name"]))
