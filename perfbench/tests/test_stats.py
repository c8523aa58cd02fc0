import math

import pytest

from perfbench import stats
from perfbench.run import Tally


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(39) is None
    assert stats.min_samples_for(90.0) == 100
    assert stats.min_samples_for(99.0) == 1000


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 90.0) == 90
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.percentile([3.0], 90.0) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_failed_ops_miss_every_latency_limit():
    lat = stats.op_latencies([0.1] * 100, [False] * 89 + [True] * 11)
    assert stats.percentile(lat, 50.0) == 0.1
    assert stats.percentile(lat, 90.0) == math.inf


def test_failed_frac():
    assert stats.failed_frac(200, 0) == 0.0
    assert stats.failed_frac(200, 5) == 0.025
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(10, 11)


class _Ops:
    """Op 1 is refused (raises), op 2 returns a wrong answer."""

    late_failed = 0

    def run_op(self, spec):
        if spec == 1:
            raise ConnectionRefusedError("refused")
        return 0.01, 5, spec * 10

    def check(self, spec, output):
        return spec != 2


def test_failed_frac_counts_refused_and_wrong_ops(capsys):
    wl, tally = _Ops(), Tally()
    for spec in range(4):
        tally.op(wl, spec)
    assert tally.counts(wl) == (4, 2)
    assert tally.work == 15  # a refused op does no work
    wl.late_failed = 1  # an end-of-run check failed one more
    attempted, failed = tally.counts(wl)
    assert stats.failed_frac(attempted, failed) == 0.75
    assert "refused" in capsys.readouterr().err


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
