"""Unit + property tests for the segment oracle's vectorised primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from local_max_oracle import segment_max
from segment_oracle import gather_rows, row_ids, segment_argmax_lex


def indptr_from_lengths(lengths):
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


@st.composite
def segmented_values(draw):
    lengths = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    total = sum(lengths)
    values = draw(st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=total,
        max_size=total))
    return indptr_from_lengths(lengths), np.array(values)


class TestRowIds:
    def test_basic(self):
        indptr = indptr_from_lengths([2, 0, 3])
        assert list(row_ids(indptr)) == [0, 0, 2, 2, 2]

    def test_empty(self):
        assert len(row_ids(np.array([0]))) == 0


class TestSegmentMax:
    def test_empty_rows_filled(self):
        indptr = indptr_from_lengths([1, 0, 2])
        vals = np.array([3.0, 1.0, 7.0])
        out = segment_max(vals, indptr)
        assert out[0] == 3.0
        assert out[1] == -np.inf
        assert out[2] == 7.0

    def test_int_fill(self):
        indptr = indptr_from_lengths([0, 1])
        out = segment_max(np.array([5], dtype=np.int64), indptr)
        assert out[0] == np.iinfo(np.int64).min
        assert out[1] == 5

    def test_custom_fill(self):
        indptr = indptr_from_lengths([0])
        out = segment_max(np.empty(0), indptr, fill=-1.0)
        assert out[0] == -1.0

    @given(segmented_values())
    def test_matches_python(self, data):
        indptr, vals = data
        out = segment_max(vals, indptr)
        for r in range(len(indptr) - 1):
            seg = vals[indptr[r]:indptr[r + 1]]
            if len(seg):
                assert out[r] == seg.max()
            else:
                assert out[r] == -np.inf


def segment_argmax(values, indptr):
    """The lexicographic arg-max with a constant tie-break key: each
    row's first maximal entry."""
    return segment_argmax_lex(values, np.zeros(len(values), np.int64),
                              indptr)


class TestSegmentArgmax:
    def test_first_of_ties(self):
        indptr = indptr_from_lengths([4])
        vals = np.array([1.0, 5.0, 5.0, 2.0])
        assert segment_argmax(vals, indptr)[0] == 1

    def test_fully_masked_row(self):
        indptr = indptr_from_lengths([2])
        vals = np.array([-np.inf, -np.inf])
        assert segment_argmax(vals, indptr)[0] == -1

    def test_empty_row(self):
        indptr = indptr_from_lengths([0, 1])
        out = segment_argmax(np.array([2.0]), indptr)
        assert out[0] == -1
        assert out[1] == 0

    @given(segmented_values())
    def test_matches_python(self, data):
        indptr, vals = data
        out = segment_argmax(vals, indptr)
        for r in range(len(indptr) - 1):
            seg = vals[indptr[r]:indptr[r + 1]]
            if len(seg) and seg.max() > -np.inf:
                assert out[r] == indptr[r] + int(np.argmax(seg))
            else:
                assert out[r] == -1


class TestSegmentArgmaxLex:
    def test_secondary_breaks_ties(self):
        indptr = indptr_from_lengths([3])
        primary = np.array([5.0, 5.0, 1.0])
        secondary = np.array([10, 20, 99], dtype=np.int64)
        assert segment_argmax_lex(primary, secondary, indptr)[0] == 1

    def test_primary_dominates(self):
        indptr = indptr_from_lengths([2])
        primary = np.array([5.0, 6.0])
        secondary = np.array([99, 1], dtype=np.int64)
        assert segment_argmax_lex(primary, secondary, indptr)[0] == 1

    def test_all_masked(self):
        indptr = indptr_from_lengths([2])
        primary = np.full(2, -np.inf)
        secondary = np.array([1, 2], dtype=np.int64)
        assert segment_argmax_lex(primary, secondary, indptr)[0] == -1

    def test_mixed_rows(self):
        indptr = indptr_from_lengths([2, 0, 2])
        primary = np.array([1.0, -np.inf, 3.0, 3.0])
        secondary = np.array([7, 8, 2, 9], dtype=np.int64)
        out = segment_argmax_lex(primary, secondary, indptr)
        assert list(out) == [0, -1, 3]

    @given(segmented_values(), st.integers(0, 2**20))
    def test_matches_python(self, data, seed):
        indptr, primary = data
        rng = np.random.default_rng(seed)
        secondary = rng.integers(0, 50, size=len(primary))
        out = segment_argmax_lex(primary, secondary, indptr)
        for r in range(len(indptr) - 1):
            lo, hi = indptr[r], indptr[r + 1]
            keys = [(primary[k], secondary[k]) for k in range(lo, hi)
                    if primary[k] > -np.inf]
            if not keys:
                assert out[r] == -1
            else:
                best = max(keys)
                k = out[r]
                assert (primary[k], secondary[k]) == best


class TestGatherRows:
    def test_basic(self):
        indptr = indptr_from_lengths([2, 3, 1])
        sub_indptr, pos = gather_rows(indptr, np.array([0, 2]))
        assert list(sub_indptr) == [0, 2, 3]
        assert list(pos) == [0, 1, 5]

    def test_empty_selection(self):
        indptr = indptr_from_lengths([2, 3])
        sub_indptr, pos = gather_rows(indptr, np.array([], dtype=np.int64))
        assert list(sub_indptr) == [0]
        assert len(pos) == 0

    def test_empty_rows_selected(self):
        indptr = indptr_from_lengths([0, 2, 0])
        sub_indptr, pos = gather_rows(indptr, np.array([0, 1, 2]))
        assert list(sub_indptr) == [0, 0, 2, 2]
        assert list(pos) == [0, 1]

    @given(st.data())
    def test_positions_cover_selected_rows(self, data):
        lengths = data.draw(st.lists(st.integers(0, 5), min_size=1,
                                     max_size=10))
        indptr = indptr_from_lengths(lengths)
        n = len(lengths)
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=n))
        rows = np.array(sorted(rows), dtype=np.int64)
        sub_indptr, pos = gather_rows(indptr, rows)
        expected = np.concatenate(
            [np.arange(indptr[r], indptr[r + 1]) for r in rows]
        ) if len(rows) else np.empty(0, dtype=np.int64)
        assert np.array_equal(pos, expected)
