"""The benchmark's statistics: the tail-percentile rule and failure counting."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import MIN_BEYOND, Tally, median, tail_percentile  # noqa: E402


def test_p99_needs_ten_samples_beyond_it():
    assert tail_percentile(range(999), 99) is None
    # 1000 samples: rank 990, so samples 991..1000 lie beyond it
    assert tail_percentile(range(1, 1001), 99) == 990
    assert tail_percentile(range(1, 1001), 99) is not None


@pytest.mark.parametrize("q, n_min", [(50, 20), (90, 100), (99, 1000), (99.9, 10000)])
def test_minimum_sample_count_per_percentile(q, n_min):
    values = list(range(1, n_min + 1))
    value = tail_percentile(values, q)
    assert value is not None
    assert sum(v > value for v in values) >= MIN_BEYOND
    assert tail_percentile(values[:-1], q) is None


def test_percentile_is_nearest_rank_and_order_free():
    values = [5, 1, 4, 2, 3] * 40  # 200 samples, 40 of each value
    assert tail_percentile(values, 50) == 3
    assert tail_percentile(values, 90) == 5
    with pytest.raises(ValueError):
        tail_percentile(values, 100)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tally_counts_every_failure_kind():
    tally = Tally()
    tally.record(True)
    tally.record(False, "wrong answer")
    tally.record(False, "exit code 1, expected 0")
    tally.record(False, "RecursionError")
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.fail_ratio == 0.75
    assert tally.reasons == ["wrong answer", "exit code 1, expected 0", "RecursionError"]


def test_tally_add_and_empty_ratio():
    assert Tally().fail_ratio == 0.0
    a, b = Tally(), Tally()
    a.record(False, "x")
    b.record(True)
    b.record(False, "y")
    a.add(b)
    assert (a.attempted, a.failed, a.reasons) == (3, 2, ["x", "y"])
