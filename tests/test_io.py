"""Unit tests for Matrix Market and binary snapshot I/O."""

import io
import re

import numpy as np
import pytest

from conftest import build_graph
from repro.graph.csr import GraphFormatError
from repro.graph.io import (
    read_matrix_market,
    read_npz,
    save_npz,
    write_matrix_market,
)


class TestMatrixMarketRead:
    def test_symmetric_real(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% comment line\n"
            "3 3 2\n"
            "2 1 1.5\n"
            "3 2 2.5\n"
        )
        g = read_matrix_market(io.StringIO(text))
        g.validate()
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 1.5

    def test_general_symmetrised(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 3.0\n"
            "2 1 3.0\n"
        )
        g = read_matrix_market(io.StringIO(text))
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 3.0

    def test_pattern_unit_weights(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n"
            "2 1\n"
            "3 1\n"
        )
        g = read_matrix_market(io.StringIO(text))
        assert np.all(g.weights == 1.0)

    def test_negative_values_abs(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n"
            "2 1 -4.0\n"
        )
        g = read_matrix_market(io.StringIO(text))
        assert g.edge_weight(0, 1) == 4.0

    def test_zero_values_bumped(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 0.0\n"
            "3 1 0.5\n"
        )
        g = read_matrix_market(io.StringIO(text))
        assert g.edge_weight(0, 1) == 0.5  # bumped to min positive

    def test_diagonal_dropped(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 9.0\n"
            "2 1 1.0\n"
        )
        g = read_matrix_market(io.StringIO(text))
        assert g.num_edges == 1

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            read_matrix_market(io.StringIO("1 1 0\n"))

    def test_unsupported_format(self):
        text = "%%MatrixMarket matrix array real general\n"
        with pytest.raises(GraphFormatError):
            read_matrix_market(io.StringIO(text))

    def test_nonsquare(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 1\n1 2 1.0\n"
        )
        with pytest.raises(GraphFormatError, match="square"):
            read_matrix_market(io.StringIO(text))

    def test_wrong_nnz(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n2 1 1.0\n"
        )
        with pytest.raises(GraphFormatError, match="entries"):
            read_matrix_market(io.StringIO(text))

    def test_empty_matrix(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n"
        g = read_matrix_market(io.StringIO(text))
        assert g.num_vertices == 3
        assert g.num_edges == 0

    @staticmethod
    def _bad_file(tmp_path, body, error):
        """Write ``body`` after a header and a comment line; reading it
        must raise ``GraphFormatError`` starting with ``path`` then
        ``error``."""
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n" + body)
        with pytest.raises(GraphFormatError,
                           match="^" + re.escape(f"{path}{error}")):
            read_matrix_market(path)

    def test_truncated_entry_names_line(self, tmp_path):
        self._bad_file(tmp_path, "3 3 3\n2 1 1.0\n3 1\n3 2 0.5\n",
                       ":5: entry has 2 fields, expected 3")

    def test_non_numeric_entry_names_line(self, tmp_path):
        self._bad_file(tmp_path, "3 3 2\n2 1 1.0\n3 x 0.5\n",
                       ":5: non-numeric entry")

    def test_short_entry_count_names_path(self, tmp_path):
        self._bad_file(tmp_path, "3 3 3\n2 1 1.0\n3 2 0.5\n",
                       ": expected 3 entries, found 2")

    def test_bad_size_line_names_line(self, tmp_path):
        self._bad_file(tmp_path, "3 3\n2 1 1.0\n", ":3: bad size line")

    def test_fractional_vertex_id_names_line(self, tmp_path):
        # Truncated, the entry would become the edge (1, 0).
        self._bad_file(tmp_path, "3 3 2\n2 1 1.0\n\n2.5 1 0.5\n",
                       ":6: non-integral vertex id '2.5 1 0.5'")

    def test_one_field_entries_name_line(self, tmp_path):
        self._bad_file(tmp_path, "3 3 2\n# c\n2\n3\n",
                       ":5: entry has 1 field, expected 2 or more")

    def test_fractional_column_id_names_line(self, tmp_path):
        self._bad_file(tmp_path, "3 3 2\n2 1 1.0 # ok\n# skip\n3 1.25 0.5\n",
                       ":6: non-integral vertex id '3 1.25 0.5'")

    def test_missing_size_line(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n% only\n"
        with pytest.raises(GraphFormatError, match="missing size line"):
            read_matrix_market(io.StringIO(text))


class TestRoundTrips:
    def test_mtx_round_trip(self, tmp_path, medium_graph):
        path = tmp_path / "g.mtx"
        write_matrix_market(medium_graph, path)
        back = read_matrix_market(path)
        assert back.num_vertices == medium_graph.num_vertices
        assert back.num_edges == medium_graph.num_edges
        assert back.total_weight == pytest.approx(
            medium_graph.total_weight)
        assert back.name == "g"

    def test_mtx_file_name_default(self, tmp_path):
        g = build_graph(2, [(0, 1, 1.0)])
        path = tmp_path / "tiny_graph.mtx"
        write_matrix_market(g, path)
        assert read_matrix_market(path).name == "tiny_graph"

    def test_npz_round_trip(self, tmp_path, medium_graph):
        path = tmp_path / "g.npz"
        save_npz(medium_graph, path)
        back, _ = read_npz(path)
        assert back.name == medium_graph.name
        assert np.array_equal(back.indptr, medium_graph.indptr)
        assert np.array_equal(back.indices, medium_graph.indices)
        assert np.array_equal(back.weights, medium_graph.weights)
