import numpy as np
import pytest
from scipy import stats

from mixrobust import (DatasetPool, SamplingConfig, SamplingError, class_counts,
                       compose_split, compose_test, compose_training,
                       load_pool_csv, write_pool_csv)
from mixrobust.sampling import dense_ranks
from mixrobust.seeding import generator


def largest_remainder_oracle(mixture, total):
    """Independent rounding oracle: floor everything, then hand out the
    missing units one at a time to the largest remainder (lower index wins)."""
    raw = [p * total for p in mixture]
    counts = [int(np.floor(v)) for v in raw]
    remainders = [v - c for v, c in zip(raw, counts)]
    for _ in range(total - sum(counts)):
        best = max(range(len(mixture)), key=lambda i: (remainders[i], -i))
        counts[best] += 1
        remainders[best] = -1.0
    return counts


def toy_pool(n=10000, m=3, seed=0):
    """Equal-class pool with distinguishable scalar features."""
    per = [n // m + (1 if j < n % m else 0) for j in range(m)]
    labels = np.concatenate([np.full(c, j + 1, dtype=int) for j, c in enumerate(per)])
    features = np.arange(n, dtype=float).reshape(-1, 1)
    return DatasetPool(features=features, labels=labels)


class TestClassCounts:
    def test_toy_training_counts(self):
        assert class_counts((0.01, 0.01, 0.98), 1000).tolist() == [10, 10, 980]

    def test_toy_test_counts(self):
        assert class_counts((0.01, 0.01, 0.98), 2500).tolist() == [25, 25, 2450]

    def test_equal_thirds_tie_breaks_to_lower_index(self):
        assert class_counts((1 / 3, 1 / 3, 1 / 3), 2500).tolist() == [834, 833, 833]

    def test_rejects_zero_total(self):
        with pytest.raises(SamplingError):
            class_counts((0.5, 0.5), 0)

    @pytest.mark.parametrize("mixture", [(0.6, 0.6), (0.2, 0.2), (0.5, 0.5 + 1e-9),
                                         (float("nan"), 1.0)])
    def test_rejects_mixture_not_summing_to_one(self, mixture):
        # counts of a mixture off 1 would not sum to total: a split of the wrong size
        with pytest.raises(SamplingError, match=r"sums to .*, not 1$"):
            class_counts(mixture, 10)

    def test_matches_oracle_on_random_mixtures(self):
        rng = generator(42, "counts")
        for _ in range(300):
            m = int(rng.integers(2, 7))
            mix = rng.dirichlet(np.ones(m))
            total = int(rng.integers(m, 5000))
            got = class_counts(mix, total)
            assert got.tolist() == largest_remainder_oracle(mix, total)
            assert got.sum() == total


class TestComposeTraining:
    def test_counts_respected_with_replacement(self):
        pool = toy_pool()
        train = compose_training(pool, [10, 10, 980], generator(1, "tr"))
        assert train.size == 1000
        labels = pool.labels[train]
        assert [(labels == j).sum() for j in (1, 2, 3)] == [10, 10, 980]

    def test_degenerate_single_class(self):
        pool = toy_pool(n=30)
        train = compose_training(pool, [0, 0, 5], generator(2, "tr"))
        assert train.size == 5
        assert set(pool.labels[train]) == {3}

    def test_deterministic_under_seed(self):
        pool = toy_pool()
        a = compose_training(pool, [10, 10, 980], generator(3, "tr"))
        b = compose_training(pool, [10, 10, 980], generator(3, "tr"))
        assert np.array_equal(a, b)

    def test_empty_class_with_demand_errors(self):
        pool = toy_pool(n=9, m=3)
        pool.class_index[0] = np.array([], dtype=int)
        with pytest.raises(SamplingError, match="class 1"):
            compose_training(pool, [1, 0, 0], generator(4, "tr"))

    def test_duplicates_can_appear(self):
        pool = toy_pool(n=30)
        train = compose_training(pool, [0, 0, 50], generator(5, "tr"))
        assert np.unique(train).size < train.size


class TestComposeTest:
    def test_toy_split_disjoint_and_unique(self):
        pool = toy_pool()
        train = compose_training(pool, [10, 10, 980], generator(6, "tr"))
        test = compose_test(pool, train, [25, 25, 2450], generator(6, "ts"))
        assert test.size == 2500
        assert np.unique(test).size == 2500
        assert np.intersect1d(test, np.unique(train)).size == 0

    def test_all_zero_counts_empty(self):
        pool = toy_pool(n=30)
        test = compose_test(pool, np.array([0]), [0, 0, 0], generator(7, "ts"))
        assert test.size == 0

    def test_shortfall_reported_with_class_and_amount(self):
        pool = toy_pool(n=9, m=3)  # 3 members per class
        train = np.array([6, 7])   # class 3 members 6,7,8 -> one remains
        with pytest.raises(SamplingError, match=r"class 3: 2 .*shortfall 1"):
            compose_test(pool, train, [0, 0, 2], generator(8, "ts"))


def oracle_compose_training(pool, counts, rng):
    """Per-class loop as first written: one draw per class with demand."""
    picks = []
    for j, count in enumerate(np.asarray(counts, dtype=int), start=1):
        if count == 0:
            continue
        members = pool.class_index[j - 1] if j - 1 < pool.m else np.array([], dtype=int)
        if members.size == 0:
            raise SamplingError(f"class {j}: no members")
        picks.append(members[rng.integers(0, members.size, size=count)])
    return np.concatenate(picks) if picks else np.array([], dtype=int)


def oracle_compose_test(pool, train_indices, counts, rng):
    """The set-difference form: unique training rows, then setdiff1d per class."""
    taken = np.unique(np.asarray(train_indices, dtype=int))
    picks = []
    for j, count in enumerate(np.asarray(counts, dtype=int), start=1):
        if count == 0:
            continue
        members = pool.class_index[j - 1] if j - 1 < pool.m else np.array([], dtype=int)
        remaining = np.setdiff1d(members, taken, assume_unique=False)
        if remaining.size < count:
            raise SamplingError(f"class {j}: shortfall")
        picks.append(rng.choice(remaining, size=count, replace=False))
    return np.concatenate(picks) if picks else np.array([], dtype=int)


class TestComposeOracles:
    """The free-row mask draws exactly the rows the set-difference form drew."""

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_training_draws(self, seed):
        pool = toy_pool(n=300, m=3, seed=seed)
        rng = generator(seed, "mix")
        train_counts = class_counts(rng.dirichlet(np.ones(3)), 150)
        train = compose_training(pool, train_counts, generator(seed, "tr"))
        assert np.array_equal(train, oracle_compose_training(pool, train_counts,
                                                             generator(seed, "tr")))
        assert np.unique(train).size < train.size
        test_counts = class_counts(rng.dirichlet(np.ones(3)), 40)
        test = compose_test(pool, train, test_counts, generator(seed, "ts"))
        expected = oracle_compose_test(pool, train, test_counts, generator(seed, "ts"))
        assert test.dtype == expected.dtype
        assert np.array_equal(test, expected)

    def test_empty_class(self):
        # no member has label 2, and counts name a fourth class the pool lacks
        labels = np.array([1, 3, 1, 3, 1, 3, 1, 3, 3, 1], dtype=int)
        pool = DatasetPool(features=np.arange(10.0).reshape(-1, 1), labels=labels)
        assert pool.class_index[1].size == 0
        train = np.array([0, 0, 1, 1, 3])
        for counts in ([2, 0, 3], [2, 0, 3, 0]):
            test = compose_test(pool, train, counts, generator(11, "ts"))
            expected = oracle_compose_test(pool, train, counts, generator(11, "ts"))
            assert np.array_equal(test, expected)
        for counts in ([1, 1, 1], [1, 0, 1, 1]):
            with pytest.raises(SamplingError):
                oracle_compose_test(pool, train, counts, generator(12, "ts"))
            with pytest.raises(SamplingError, match="shortfall"):
                compose_test(pool, train, counts, generator(12, "ts"))
            with pytest.raises(SamplingError, match="no members"):
                compose_training(pool, counts, generator(12, "tr"))


class TestSamplingConfig:
    @pytest.mark.parametrize("fracs", [(float("nan"), 0.25), (0.1, float("inf")),
                                       (0.0, 0.25), (0.1, -0.5)])
    def test_rejects_fractions_not_finite_and_positive(self, fracs):
        with pytest.raises(SamplingError, match="finite and positive"):
            SamplingConfig(*fracs)


class TestComposeSplit:
    def test_fraction_sizing(self):
        pool = toy_pool()
        cfg = SamplingConfig(train_frac=0.10, test_frac=0.25)
        split = compose_split(pool, (0.01, 0.01, 0.98), (0.01, 0.01, 0.98), cfg,
                              generator(9, "tr"), generator(9, "ts"))
        assert split.train_indices.size == 1000
        assert split.test_indices.size == 2500
        assert np.bincount(pool.labels[split.train_indices])[1:].tolist() == [10, 10, 980]
        assert np.bincount(pool.labels[split.test_indices])[1:].tolist() == [25, 25, 2450]

    def test_disjointness_over_many_seeds(self):
        pool = toy_pool(n=600)
        cfg = SamplingConfig()
        for seed in range(50):
            split = compose_split(pool, (0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3), cfg,
                                  generator(seed, "tr"), generator(seed, "ts"))
            assert np.intersect1d(split.test_indices,
                                  np.unique(split.train_indices)).size == 0
            assert np.unique(split.test_indices).size == split.test_indices.size

    def test_training_marginals_match_mixture(self):
        # chi-square goodness of fit over aggregated draws
        pool = toy_pool(n=3000)
        mixture = np.array([0.2, 0.3, 0.5])
        counts = np.zeros(3)
        draws = 200
        per_draw = 500
        for seed in range(draws):
            train = compose_training(pool, class_counts(mixture, per_draw),
                                     generator(seed, "marg"))
            labels = pool.labels[train]
            counts += [(labels == j).sum() for j in (1, 2, 3)]
        total = counts.sum()
        chi2 = float((((counts - mixture * total) ** 2) / (mixture * total)).sum())
        assert chi2 < stats.chi2.ppf(1 - 0.001, df=2)


class TestPoolCsv:
    def test_round_trip(self, tmp_path):
        pool = toy_pool(n=60)
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        back = load_pool_csv(path)
        assert back.m == 3
        assert np.array_equal(back.labels, pool.labels)
        assert np.allclose(back.features, pool.features)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f1,f2\n1,0.5,0.25\n2,0.5\n")
        with pytest.raises(SamplingError, match="expected 3 fields"):
            load_pool_csv(path)

    def test_rejects_zero_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f1\n0,0.5\n")
        with pytest.raises(SamplingError, match="1-based"):
            load_pool_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_feature_naming_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f1,f2\n1,0.5,0.25\n2,0.5,{value}\n")
        with pytest.raises(SamplingError, match=r"bad\.csv:3: features must be finite"):
            load_pool_csv(path)


class TestDatasetPool:
    def test_class_index_is_derived_not_passed(self):
        with pytest.raises(TypeError, match="class_index"):
            DatasetPool(features=np.zeros((4, 1)), labels=np.array([1, 2, 1, 2]),
                        class_index=[[0, 1, 2, 3], []])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_feature(self, value):
        features = np.zeros((4, 2))
        features[2, 1] = value
        with pytest.raises(SamplingError, match="features must be finite; row 2"):
            DatasetPool(features=features, labels=np.array([1, 2, 1, 2]))

    def test_ranks_are_dense_and_shared_by_equal_values(self):
        features = np.array([[0.5, 3.0], [-1.0, 3.0], [0.5, -0.0], [2.0, 0.0]])
        pool = DatasetPool(features=features, labels=np.array([1, 2, 1, 2]))
        assert pool.ranks.tolist() == [[1, 0, 1, 2], [1, 1, 0, 0]]
        assert pool.ranks.dtype == np.uint8
        assert pool.ranks is pool.ranks

    @pytest.mark.parametrize("distinct,dtype", [(256, np.uint8), (257, np.uint16),
                                                (65537, np.uint32)])
    def test_ranks_take_the_smallest_unsigned_dtype(self, distinct, dtype):
        assert dense_ranks(np.arange(float(distinct))[:, None]).dtype == dtype
