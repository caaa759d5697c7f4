"""Fixed-input tests for the benchmark's summary helpers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from summary import (covered_length, parallel_efficiency, self_time,  # noqa: E402
                     tail_percentile, timing_summary)


@pytest.mark.parametrize("n, cap, expected", [
    (9, 99, None),     # too few samples for any tail
    (20, 99, None),    # only the median has 10 beyond it
    (21, 99, 52),
    (100, 99, 90),
    (252, 99, 96),
    (252, 95, 95),     # capped
    (1000, 99, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, cap, expected):
    assert tail_percentile(n, cap) == expected


def test_timing_summary_median_tail_and_count():
    summary = timing_summary(list(range(100, 0, -1)))
    assert summary == {"n": 100, "median": 50.5, "pct": 90, "pct_value": 90}
    small = timing_summary([3.0, 1.0, 2.0])
    assert small == {"n": 3, "median": 2.0, "pct": None, "pct_value": None}


def test_self_time_subtracts_union_of_children():
    # (1,3) and (2,5) overlap: together they cover 4; (7,8) adds 1
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    # children are clipped to the parent span
    assert covered_length([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert self_time(0.0, 2.0, []) == pytest.approx(2.0)
    # a child nested inside another adds nothing
    assert self_time(0.0, 4.0, [(0.0, 3.0), (1.0, 2.0)]) == pytest.approx(1.0)


def test_parallel_efficiency():
    assert parallel_efficiency(8.0, 5.0, 2) == pytest.approx(0.8)
    assert parallel_efficiency(6.0, 3.0, 2) == pytest.approx(1.0)
