import math
import re

import numpy as np
import pytest

from mixrobust import (MetricsError, RunOutcome, TestScenario, auc_ovr, log_sd,
                       mean_auc, read_outcomes_csv, write_outcomes_csv)
from mixrobust.metrics import SD_FLOOR, midranks, outcomes_to_csv
from mixrobust.seeding import generator


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
