"""Pure summary helpers for the benchmark: percentiles, span self time and
parallel efficiency. Nothing here imports mixrobust, so the unit tests run
without the program."""

from __future__ import annotations

import math
import statistics

# a tail percentile is only reported when this many samples lie beyond it
TAIL_SAMPLES = 10


def tail_percentile(n, cap=99):
    """Highest integer percentile p <= cap with at least TAIL_SAMPLES of n
    samples strictly above its nearest-rank position, or None if no p above
    the median qualifies."""
    for p in range(cap, 50, -1):
        if n - math.ceil(p * n / 100) >= TAIL_SAMPLES:
            return p
    return None


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule (p in (0, 100])."""
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def timing_summary(samples, cap=99):
    """Median, the tail percentile the sample count allows, and the count."""
    values = sorted(samples)
    out = {"n": len(values), "median": statistics.median(values) if values else 0.0,
           "pct": None, "pct_value": None}
    p = tail_percentile(len(values), cap)
    if p is not None:
        out["pct"], out["pct_value"] = p, nearest_rank(values, p)
    return out


def covered_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start, end, child_intervals):
    """A span's duration minus the part its children cover."""
    return (end - start) - covered_length(child_intervals, start, end)


def parallel_efficiency(serial_s, parallel_s, jobs):
    """Serial time over (jobs x parallel time); 1.0 is perfect scaling."""
    return serial_s / (jobs * parallel_s)
