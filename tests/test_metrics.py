import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrobust import (MetricsError, RunOutcome, TestScenario, auc_ovr, log_sd,
                       mean_auc, read_outcomes_csv, write_outcomes_csv)
from mixrobust.design import PROPORTION_DECIMALS
from mixrobust.fileio import csv_text
from mixrobust.metrics import SD_FLOOR, outcomes_header, outcomes_to_csv
from mixrobust.seeding import generator


def midranks(values):
    """Ranks 1..n with tied values sharing the average of their positions,
    from a stable sort, as `auc_ovr` ranked before its rank sums became
    exact integers."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    boundaries = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1], True])
    sizes = np.diff(boundaries)
    group_mid = (boundaries[:-1] + boundaries[1:] - 1) / 2.0 + 1.0
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(group_mid, sizes)
    return ranks


def oracle_auc_ovr(scores, labels, class_j):
    """`auc_ovr` as it was written: the float sum of the positives' midranks."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    column = scores[:, class_j - 1]
    positive = labels == class_j
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricsError(f"class {class_j}: AUC needs at least one positive and "
                           f"one negative example (got {n_pos} / {n_neg})")
    rank_sum = float(midranks(column)[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_bruteforce(column, positive):
    """O(n^2) pair-counting oracle: wins count 1, ties count 1/2."""
    pos = column[positive]
    neg = column[~positive]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def scores_for(column, m=2, j=1):
    scores = np.zeros((column.size, m))
    scores[:, j - 1] = column
    return scores


class TestAucOvr:
    def test_perfect_separation(self):
        col = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 2, 2])
        assert auc_ovr(scores_for(col), labels, 1) == 1.0

    def test_all_ties_is_half(self):
        col = np.full(6, 0.5)
        labels = np.array([1, 1, 1, 2, 2, 2])
        assert auc_ovr(scores_for(col), labels, 1) == 0.5

    def test_three_quarters_case(self):
        col = np.array([0.8, 0.4, 0.6, 0.2])
        labels = np.array([1, 1, 2, 2])
        assert auc_ovr(scores_for(col), labels, 1) == 0.75

    def test_errors_without_both_sides(self):
        col = np.array([0.3, 0.4])
        with pytest.raises(MetricsError, match="class 1"):
            auc_ovr(scores_for(col), np.array([1, 1]), 1)
        with pytest.raises(MetricsError, match="class 2"):
            auc_ovr(scores_for(col, m=2, j=2), np.array([1, 1]), 2)

    def test_matches_bruteforce_with_ties(self):
        rng = generator(11, "auc")
        for trial in range(120):
            n = int(rng.integers(5, 200))
            # coarse quantization forces plenty of ties
            col = np.round(rng.random(n), 1)
            labels = np.where(rng.random(n) < 0.4, 1, 2)
            if len(set(labels)) < 2:
                labels[0] = 1
                labels[-1] = 2
            got = auc_ovr(scores_for(col), labels, 1)
            want = auc_bruteforce(col, labels == 1)
            assert abs(got - want) <= 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = generator(12, "auc")
        col = rng.random(80)
        labels = np.where(rng.random(80) < 0.5, 1, 2)
        labels[:2] = [1, 2]
        base = auc_ovr(scores_for(col), labels, 1)
        for transform in (lambda v: 3 * v + 1, np.exp, lambda v: v ** 3):
            assert abs(auc_ovr(scores_for(transform(col)), labels, 1) - base) <= 1e-12

    def test_negation_complements_for_tie_free(self):
        rng = generator(13, "auc")
        col = rng.permutation(np.linspace(0.0, 1.0, 50))
        labels = np.where(rng.random(50) < 0.5, 1, 2)
        labels[:2] = [1, 2]
        a = auc_ovr(scores_for(col), labels, 1)
        b = auc_ovr(scores_for(-col), labels, 1)
        assert abs(a + b - 1.0) <= 1e-12


class TestMidranks:
    def test_simple_ties(self):
        assert midranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_permutation_of_1_to_n_when_distinct(self):
        rng = generator(14, "rank")
        v = rng.permutation(25).astype(float)
        assert sorted(midranks(v).tolist()) == list(range(1, 26))


class TestResponses:
    def test_mean_auc(self):
        assert mean_auc((0.9, 0.8, 0.7)) == pytest.approx(0.8, abs=1e-15)
        assert mean_auc((1, 1, 1)) == 1
        assert mean_auc((0.5, 0.6, 0.95)) == pytest.approx(0.68333333333333, abs=1e-12)

    def test_log_sd_known_values(self):
        value, flag = log_sd((0.9, 0.8, 0.7))
        assert value == pytest.approx(math.log(0.1), abs=1e-12)
        assert not flag
        value, flag = log_sd((1.0, 0.5, 0.0))
        assert value == pytest.approx(math.log(0.5), abs=1e-12)
        assert not flag

    def test_log_sd_degenerate_floor(self):
        value, flag = log_sd((0.8, 0.8, 0.8))
        assert value == math.log(SD_FLOOR)
        assert flag

    def test_log_sd_requires_two_classes(self):
        with pytest.raises(MetricsError):
            log_sd((0.9,))

    def test_log_sd_scaling_shifts_by_log_c(self):
        rng = generator(15, "sd")
        aucs = rng.random(5)
        base, _ = log_sd(aucs)
        for c in (2.0, 0.25, 7.5):
            scaled, _ = log_sd(c * aucs)
            assert scaled - base == pytest.approx(math.log(c), abs=1e-10)


class TestOutcomesCsv:
    def _outcomes(self):
        return [
            RunOutcome.from_aucs(2, 1, TestScenario.BALANCED, (1.0, 0.0),
                                 (0.01, 0.01, 0.98), (0.91, 0.84, 0.77)),
            RunOutcome.from_aucs(1, 1, TestScenario.BALANCED, (1.0, 1.0),
                                 (1 / 3, 1 / 3, 1 / 3), (0.99, 0.98, 0.97)),
        ]

    def test_round_trip_sorted_by_run_id(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        write_outcomes_csv(self._outcomes(), 3, 2, path)
        back = read_outcomes_csv(path)
        assert [o.run_id for o in back] == [1, 2]
        assert back[1].aucs == (0.91, 0.84, 0.77)
        assert back[1].mean_auc == pytest.approx(mean_auc((0.91, 0.84, 0.77)), abs=1e-9)
        assert not back[0].degenerate_sd

    @pytest.mark.parametrize("field,value,match", [
        (3, "one", "could not convert string to float: 'one'"),
        (2, "sideways", "unknown scenario 'sideways'"),
        (5, "0.5", "run 1 mixture: stored proportions sum to 1.166666"),
        (5, "nan", "stored proportions sum to nan"),
        (None, None, "expected 14 fields, got 5"),
    ])
    def test_malformed_row_names_its_line(self, tmp_path, field, value, match):
        path = tmp_path / "outcomes.csv"
        write_outcomes_csv(self._outcomes(), 3, 2, path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        if field is None:
            del fields[5:]
        else:
            fields[field] = value
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetricsError, match=rf"^{re.escape(str(path))}:2: .*{match}"):
            read_outcomes_csv(path)

    def test_mean_consistent_with_aucs(self):
        for out in self._outcomes():
            assert out.mean_auc == pytest.approx(np.mean(out.aucs), abs=1e-12)

    def test_byte_stable(self):
        outs = self._outcomes()
        assert outcomes_to_csv(outs, 3, 2) == outcomes_to_csv(outs, 3, 2)


fixed = settings(derandomize=True, deadline=None, max_examples=200)

aucs_values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.5, 0.999, 1.0, 0.0]),
                        st.floats(0.7, 0.75))
auc_tables = st.integers(2, 12).flatmap(lambda m: st.one_of(
    st.lists(st.lists(aucs_values, min_size=m, max_size=m), min_size=1, max_size=4),
    # all equal: the SD_FLOOR branch
    aucs_values.map(lambda v: [[v] * m]),
    # equal up to the last bits
    st.floats(0.5, 0.99).map(lambda v: [[v, *[np.nextafter(v, 1.0)] * (m - 1)]])))


def bits(value):
    return float(value).hex()


@fixed
@given(auc_tables)
@example([[0.9] * 9])
@example([[0.1 * k for k in range(1, 13)]])
def test_responses_keep_the_bits_of_np_mean_and_np_std(rows):
    """np.mean's and np.std(ddof=1)'s bits, also from m = 9, where numpy's
    pairwise summation order shows, for rows of a contiguous 2-D array,
    tuples, lists and RunOutcome.from_aucs."""
    table = np.ascontiguousarray(rows, dtype=float)
    for row in table:
        want_mean = bits(np.mean(row))
        sd = float(np.std(row, ddof=1))
        want_sd = (math.log(SD_FLOOR), True) if sd < SD_FLOOR else (math.log(sd), False)
        for aucs in (row, tuple(row.tolist()), row.tolist()):
            assert bits(mean_auc(aucs)) == want_mean
            value, flag = log_sd(aucs)
            assert (bits(value), flag) == (bits(want_sd[0]), want_sd[1])
        out = RunOutcome.from_aucs(1, 1, TestScenario.BALANCED, (1.0, 0.0),
                                   (1 / len(row),) * len(row), row)
        assert (bits(out.mean_auc), bits(out.log_sd), out.degenerate_sd) == (
            want_mean, bits(want_sd[0]), want_sd[1])


def oracle_outcomes_to_csv(outcomes, m, h):
    """outcomes_to_csv as it was written: one csv.writer row per outcome."""
    return csv_text(outcomes_header(m, h), (
        [out.run_id, out.replicate, out.scenario.value]
        + [f"{v:g}" for v in out.covariates]
        + [f"{v:.{PROPORTION_DECIMALS}f}" for v in out.train_mixture]
        + [f"{v:.10g}" for v in out.aucs]
        + [f"{out.mean_auc:.10g}", f"{out.log_sd:.10g}", int(out.degenerate_sd)]
        for out in sorted(outcomes, key=lambda o: o.run_id)))


special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e21, 1e-300,
                           123456789.123, 0.1 + 0.2])
numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True), special)
fields = st.one_of(numbers, numbers.map(np.float64), st.floats(width=32).map(np.float32))
whole = st.tuples(st.integers(0, 10 ** 6), st.sampled_from([int, np.int64, np.uint32]))


@st.composite
def outcome_tables(draw):
    m, h = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    outcomes = [RunOutcome(
        run_id=cast(run_id), replicate=draw(whole.map(lambda p: p[1](p[0] % 1000))),
        scenario=draw(st.sampled_from(list(TestScenario))),
        covariates=tuple(draw(st.lists(fields, min_size=h, max_size=h))),
        train_mixture=tuple(draw(st.lists(fields, min_size=m, max_size=m))),
        aucs=tuple(draw(st.lists(fields, min_size=m, max_size=m))),
        mean_auc=draw(fields), log_sd=draw(fields),
        degenerate_sd=draw(st.sampled_from([False, True, np.False_, np.True_])))
        for run_id, cast in draw(st.lists(whole, max_size=8))]
    return outcomes, m, h


@fixed
@given(outcome_tables())
def test_outcomes_csv_matches_the_csv_writer(table):
    """nan, inf, -0, numpy scalar fields and covariate levels such as 1e-7
    and 1e21 print as the csv.writer formatter printed them."""
    outcomes, m, h = table
    assert outcomes_to_csv(outcomes, m, h) == oracle_outcomes_to_csv(outcomes, m, h)
