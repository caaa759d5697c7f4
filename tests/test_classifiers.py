import numpy as np
import pytest

from mixrobust import (ClassifierError, ClassifierKind, DatasetPool,
                       ExternalRunnerError, SampleSplit, SyntheticDataConfig,
                       auc_ovr, default_class_means, generate_pool, train_and_score)
from mixrobust.classifiers import (HYPER_DEFAULTS, ClassifierSpec, _onehot, _presort,
                                   _row_sums, _StumpSearch, boosted_stump_scores,
                                   check_score_matrix, fit_logistic_ovr, resolve_hyper,
                                   train_and_score_batch)
from mixrobust.sampling import dense_ranks
from mixrobust.seeding import generator


def split_of(train, test):
    train = np.asarray(train, dtype=int)
    test = np.asarray(test, dtype=int)
    return SampleSplit(train_indices=train, test_indices=test)


def stump_split(values, residuals):
    """The booster's split search for one run, one class and one feature:
    (threshold, left_mean, right_mean, sse), the threshold None when the
    feature is constant."""
    features = np.asarray(values, dtype=float)[None, :, None]
    search = _StumpSearch(features, dense_ranks(features[0])[:, None], 1, 0)
    split = search(np.asarray(residuals, dtype=float)[None, None])
    threshold, left, right, sse = (float(table.item()) for table in split)
    return None if threshold == np.inf else threshold, left, right, sse


def two_class_pool(n_per_class=500, gap=6.0, seed=0):
    """1-d classes centered at 0 and gap, unit noise."""
    cfg = SyntheticDataConfig(m=2, d=1, n_per_class=n_per_class,
                              class_means=((0.0,), (gap,)), seed=seed)
    return generate_pool(cfg)


class TestGeneratePool:
    def test_counts_and_labels(self):
        cfg = SyntheticDataConfig(m=3, d=4, n_per_class=1000,
                                  class_means=default_class_means(3, 4), seed=1)
        pool = generate_pool(cfg)
        assert pool.n == 3000
        assert [idx.size for idx in pool.class_index] == [1000, 1000, 1000]

    def test_boost_tightens_clusters(self):
        cfg = SyntheticDataConfig(m=3, d=2, n_per_class=10000,
                                  class_means=((0, 0), (5, 0), (0, 5)),
                                  separability_boost=(1, 1, 10), seed=2)
        pool = generate_pool(cfg)
        sds = [pool.features[pool.class_index[j]].std(axis=0).mean() for j in range(3)]
        assert sds[0] / sds[2] == pytest.approx(10.0, rel=0.05)
        assert sds[1] / sds[2] == pytest.approx(10.0, rel=0.05)

    def test_identical_seed_identical_pool(self):
        cfg = SyntheticDataConfig(m=2, d=3, n_per_class=50,
                                  class_means=default_class_means(2, 3), seed=9)
        a, b = generate_pool(cfg), generate_pool(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_validation(self):
        with pytest.raises(ClassifierError):
            SyntheticDataConfig(m=2, d=2, n_per_class=5, class_means=((0, 0),))
        with pytest.raises(ClassifierError):
            SyntheticDataConfig(m=2, d=2, n_per_class=5,
                                class_means=((0, 0), (1, 1)), noise_scale=0.0)

    @pytest.mark.parametrize("field,value,match", [
        ("noise_scale", float("inf"), "noise_scale must be finite"),
        ("noise_scale", float("nan"), "noise_scale must be finite"),
        ("class_means", ((0, 0), (1, float("nan"))), "class_means must be finite"),
        ("separability_boost", (1, float("inf")), "one finite positive entry"),
    ])
    def test_rejects_non_finite_settings(self, field, value, match):
        settings = {"m": 2, "d": 2, "n_per_class": 5, "class_means": ((0, 0), (1, 1)),
                    field: value}
        with pytest.raises(ClassifierError, match=match):
            SyntheticDataConfig(**settings)


class TestLogistic:
    def test_separable_classes_reach_high_auc(self):
        pool = two_class_pool()
        train = np.arange(pool.n)
        scores = train_and_score(ClassifierKind.LOGISTIC, split_of(train, train), pool)
        labels = pool.labels
        assert auc_ovr(scores, labels, 1) >= 0.99
        assert auc_ovr(scores, labels, 2) >= 0.99

    def test_rows_sum_to_one(self):
        pool = two_class_pool(n_per_class=40)
        train = np.arange(pool.n)
        scores = train_and_score("logistic", split_of(train, train), pool)
        assert np.max(np.abs(scores.sum(axis=1) - 1.0)) <= 1e-9

    def test_single_class_training_rejected(self):
        pool = two_class_pool(n_per_class=30)
        only_class_1 = pool.class_index[0]
        with pytest.raises(ClassifierError, match="fewer than 2"):
            train_and_score(ClassifierKind.LOGISTIC,
                            split_of(only_class_1, np.arange(4)), pool)

    def test_loss_nonincreasing_every_50_epochs(self):
        # a k-epoch fit runs the first k epochs of a longer one
        pool = two_class_pool(n_per_class=100, gap=2.0)
        losses = fit_losses(pool.features, pool.labels, 2, range(0, 501, 50))
        assert len(losses) == 11
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def logistic_loss(weights, features_b, targets, l2):
    """Mean one-vs-rest log loss plus the L2 penalty on the non-bias weights,
    one value per fit of a (..., d + 1, m) stack."""
    z = features_b @ weights
    # log(1 + exp(-|z|)) form keeps the loss finite for large margins
    per = np.logaddexp(0.0, z) - targets * z
    return (per.mean(axis=(-2, -1))
            + 0.5 * l2 * np.sum(weights[..., :-1, :] ** 2, axis=(-2, -1)))


def fit_losses(features, labels, m, epoch_counts, l2=1e-4):
    """The logistic loss of each fit of k epochs, k in epoch_counts."""
    features_b = np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)
    targets = _onehot(labels, m)
    return [logistic_loss(fit_logistic_ovr(features, labels, m, epochs=k, l2=l2),
                          features_b, targets, l2) for k in epoch_counts]


def oracle_logistic_weights(features, labels, m, epochs=500, step=0.1, l2=1e-4):
    """The one-fit gradient descent the stacked fit replaced."""
    n = features.shape[0]
    features_b = np.hstack([features, np.ones((n, 1))])
    targets = np.zeros((n, m))
    targets[np.arange(n), labels - 1] = 1.0
    weights = np.zeros((features_b.shape[1], m))
    for _ in range(epochs):
        probs = 1.0 / (1.0 + np.exp(-(features_b @ weights)))
        grad = features_b.T @ (probs - targets) / n
        grad[:-1] += l2 * weights[:-1]
        weights -= step * grad
    return weights


def oracle_softmax(logits):
    """The row-at-a-time softmax the column form replaced: numpy's row max, and
    each row's total as numpy's sum of the row sorted."""
    with np.errstate(over="ignore", invalid="ignore"):
        expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    return expd / np.sort(expd, axis=1).sum(axis=1, keepdims=True)


def oracle_check_score_matrix(scores, m):
    """The score check as it was written with numpy's row sums."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != m:
        raise ClassifierError(f"score matrix has shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ClassifierError("scores must be finite")
    if scores.size and (scores.min() < -1e-9 or scores.max() > 1 + 1e-9):
        raise ClassifierError("scores must lie in [0, 1]")
    if scores.size and np.max(np.abs(scores.sum(axis=1) - 1.0)) > 1e-9:
        raise ClassifierError("score rows must sum to 1 within 1e-09")
    return scores


def overflow_pool():
    """A two-class pool whose rows 80..159 repeat rows 0..79 scaled by 1e307:
    still finite, as a pool must be, but a fit on them overflows."""
    base = two_class_pool(n_per_class=40)
    huge = base.features * 1e307
    return DatasetPool(features=np.vstack([base.features, huge]),
                       labels=np.concatenate([base.labels, base.labels]))


class TestStackedLogistic:
    @pytest.mark.parametrize("batch,n,epochs", [(8, 300, 500), (8, 1500, 20), (3, 7, 0)])
    def test_stack_equals_oracle_bits(self, batch, n, epochs):
        rng = generator(21, "stack")
        features = rng.normal(size=(batch, n, 3))
        labels = rng.integers(1, 4, size=(batch, n))
        weights = fit_logistic_ovr(features, labels, 3, epochs=epochs)
        assert weights.shape == (batch, 4, 3)
        for fit, x, y in zip(weights, features, labels):
            assert fit.tobytes() == oracle_logistic_weights(x, y, 3, epochs).tobytes()

    def test_stacked_weights_equal_single_fit_weights(self):
        rng = generator(22, "stack")
        features = rng.normal(size=(4, 50, 2))
        labels = rng.integers(1, 3, size=(4, 50))
        stacked = fit_logistic_ovr(features, labels, 2, epochs=40)
        for i in range(4):
            alone = fit_logistic_ovr(features[i], labels[i], 2, epochs=40)
            assert stacked[i].tobytes() == alone.tobytes()
        losses = fit_losses(features, labels, 2, range(0, 41, 10))
        for i in range(4):
            assert [loss[i] for loss in losses] == fit_losses(features[i], labels[i], 2,
                                                              range(0, 41, 10))

    def test_overflowing_fit_leaves_neighbours_bits(self):
        pool = overflow_pool()
        rows = np.stack([np.arange(80), np.arange(80, 160), np.arange(80)[::-1]])
        weights = fit_logistic_ovr(pool.features[rows], pool.labels[rows], 2,
                                   epochs=50)
        assert not np.isfinite(weights[1]).all()
        for i in (0, 2):
            expected = oracle_logistic_weights(pool.features[rows[i]],
                                               pool.labels[rows[i]], 2, epochs=50)
            assert weights[i].tobytes() == expected.tobytes()

    def test_batch_fails_only_the_diverged_split(self):
        pool = overflow_pool()
        test = np.arange(0, 80, 3)
        splits = [split_of(np.arange(80), test), split_of(np.arange(80, 160), test),
                  split_of(np.arange(80)[::-1], test)]
        results = train_and_score_batch(ClassifierSpec("logistic", {"epochs": 50}), splits, pool)
        assert isinstance(results[1], ClassifierError)
        assert "logistic weights are not finite" in str(results[1])
        for i in (0, 2):
            alone = train_and_score("logistic", splits[i], pool, hyper={"epochs": 50})
            assert results[i].tobytes() == alone.tobytes()

    def test_batch_scores_equal_oracle_softmax_bits(self):
        cfg = SyntheticDataConfig(m=3, d=3, n_per_class=40,
                                  class_means=default_class_means(3, 3), seed=5)
        pool = generate_pool(cfg)
        rng = generator(24, "batch")
        splits = [split_of(rng.integers(0, pool.n, size=60),
                           rng.integers(0, pool.n, size=25)) for _ in range(8)]
        results = train_and_score_batch(ClassifierSpec("logistic", {"epochs": 40}), splits, pool)
        for split, scores in zip(splits, results):
            test = pool.features[split.test_indices]
            weights = oracle_logistic_weights(pool.features[split.train_indices],
                                              pool.labels[split.train_indices], 3, epochs=40)
            expected = oracle_softmax(np.hstack([test, np.ones((len(test), 1))]) @ weights)
            assert scores.tobytes() == expected.tobytes()

    def test_logits_beyond_float_range_score_without_warning(self):
        # at the default 500 epochs the weights are finite, but the scaled
        # test rows' logits span more than the float range, so the shifted
        # losing logit is -inf
        pool = overflow_pool()
        scores = train_and_score("logistic", split_of(np.arange(80), np.arange(80, 160)),
                                 pool)
        assert set(scores.ravel()) == {0.0, 1.0}
        assert (scores.sum(axis=1) == 1.0).all()

    def test_diverging_step_names_the_weights(self):
        pool = two_class_pool(n_per_class=40)
        train = np.arange(pool.n)
        with pytest.raises(ClassifierError, match="logistic weights are not finite"):
            train_and_score("logistic", split_of(train, train), pool, hyper={"step": 1e300})

    @pytest.mark.parametrize("kind,hyper", [
        ("logistic", {"epochs": 60}),
        ("boosted_stumps", {"rounds": 10}),
    ])
    def test_batch_equals_one_split_calls(self, kind, hyper):
        cfg = SyntheticDataConfig(m=3, d=3, n_per_class=40,
                                  class_means=default_class_means(3, 3), seed=4)
        pool = generate_pool(cfg)
        rng = generator(23, "batch")
        test = np.arange(0, pool.n, 5)
        splits = [split_of(rng.integers(0, pool.n, size=60), test),
                  split_of(pool.class_index[1][:60 // 2].repeat(2), test),
                  split_of(rng.integers(0, pool.n, size=60), test),
                  split_of(rng.integers(0, pool.n, size=45), test)]
        results = train_and_score_batch(ClassifierSpec(kind, hyper), splits, pool)
        assert str(results[1]) == "training multiset covers fewer than 2 classes"
        for i in (0, 2, 3):
            alone = train_and_score(kind, splits[i], pool, hyper=hyper)
            assert results[i].tobytes() == alone.tobytes()


class TestBoostedStumps:
    def test_one_round_finds_gap_threshold_and_perfect_auc(self):
        # 10 training points per class, supports separated around 0
        left = np.linspace(-2.0, -0.5, 10)
        right = np.linspace(0.5, 2.0, 10)
        features = np.concatenate([left, right]).reshape(-1, 1)
        labels = np.array([1] * 10 + [2] * 10)
        pool = DatasetPool(features=features, labels=labels)
        train = np.arange(20)
        scores = train_and_score(ClassifierKind.BOOSTED_STUMPS,
                                 split_of(train, train), pool, hyper={"rounds": 1})
        assert auc_ovr(scores, labels, 2) == 1.0

        threshold, _, _, _ = stump_split(features[:, 0], (labels == 2).astype(float) - 0.5)
        assert -0.5 < threshold < 0.5

    def test_best_split_matches_bruteforce_oracle(self):
        rng = generator(41, "stump")
        for _ in range(40):
            n = 20
            values = np.round(rng.normal(size=n), 1)
            residuals = rng.normal(size=n)
            threshold, left, right, sse = stump_split(values, residuals)

            # oracle: try every midpoint between adjacent distinct sorted values
            order = np.argsort(values)
            sv, sr = values[order], residuals[order]
            best_sse = np.inf
            best_threshold = None
            for i in range(n - 1):
                if sv[i] == sv[i + 1]:
                    continue
                cut = 0.5 * (sv[i] + sv[i + 1])
                mask = sv <= cut
                fitted = np.where(mask, sr[mask].mean(), sr[~mask].mean())
                cand = float(((sr - fitted) ** 2).sum())
                if cand < best_sse - 1e-12:
                    best_sse = cand
                    best_threshold = cut
            if best_threshold is None:
                assert threshold is None
            else:
                assert sse == pytest.approx(best_sse, abs=1e-9)
                assert threshold == pytest.approx(best_threshold, abs=1e-12)

    def test_constant_feature_fits_constant(self):
        threshold, left, right, _ = stump_split(np.ones(6), np.array([1., 2, 3, 4, 5, 6]))
        assert threshold is None
        assert left == pytest.approx(3.5)

    def test_rows_sum_to_one(self):
        pool = two_class_pool(n_per_class=30)
        train = np.arange(pool.n)
        scores = train_and_score("boosted_stumps", split_of(train, train), pool,
                                 hyper={"rounds": 5})
        assert np.max(np.abs(scores.sum(axis=1) - 1.0)) <= 1e-9


def oracle_best_stump_split(values, residuals):
    """The one-feature split as it was written before features were presorted:
    every call argsorts its own column."""
    n = values.size
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    sr = residuals[order]
    valid = np.flatnonzero(sv[:-1] < sv[1:])
    total_sq = float(sr @ sr)
    if valid.size == 0:
        return None, float(sr.mean()), float(sr.mean()), total_sq - n * sr.mean() ** 2
    prefix = np.cumsum(sr)
    k = valid + 1
    left_sum = prefix[valid]
    right_sum = prefix[-1] - left_sum
    gain = left_sum ** 2 / k + right_sum ** 2 / (n - k)
    best = int(np.argmax(gain))
    cut = k[best]
    threshold = 0.5 * (sv[cut - 1] + sv[cut])
    return (float(threshold), float(left_sum[best] / cut),
            float(right_sum[best] / (n - cut)), total_sq - float(gain[best]))


def oracle_boosted_raw(features, labels, test_features, m, rounds, shrinkage=0.1):
    """The per-class booster it replaced: one model per class, each round
    trying every feature, the fitted stumps replayed on the test rows."""
    raw = np.empty((test_features.shape[0], m))
    for j in range(1, m + 1):
        targets = (labels == j).astype(float)
        base = float(targets.mean())
        current = np.full(targets.size, base)
        stumps = []
        for _ in range(rounds):
            residual = targets - current
            best = None
            for feature in range(features.shape[1]):
                threshold, left, right, sse = oracle_best_stump_split(
                    features[:, feature], residual)
                if best is None or sse < best[4] - 1e-15:
                    best = (feature, threshold, left, right, sse)
            feature, threshold, left, right, _ = best
            stumps.append((feature, threshold, left, right))
            if threshold is None:
                current = current + shrinkage * left
            else:
                current = current + shrinkage * np.where(
                    features[:, feature] <= threshold, left, right)
        out = np.full(test_features.shape[0], base)
        for feature, threshold, left, right in stumps:
            if threshold is None:
                out += shrinkage * left
            else:
                out += shrinkage * np.where(test_features[:, feature] <= threshold,
                                            left, right)
        raw[:, j - 1] = out
    return raw


class TestBoostedStumpsOracle:
    """The presorted booster must give the per-class booster's scores bit
    for bit, including ties between a feature and its duplicate."""

    @staticmethod
    def _pool(seed, n=240, decimals=1):
        rng = generator(seed, "stump-oracle")
        x = np.round(rng.normal(size=(n, 2)), decimals)
        # columns: x0, a constant, a copy of x0 (ties every SSE of column 0), x1
        features = np.column_stack([x[:, 0], np.full(n, 2.5), x[:, 0], x[:, 1]])
        labels = rng.integers(1, 4, size=n)
        return DatasetPool(features=features, labels=labels), rng

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("rounds", [0, 1, 7, 40])
    def test_scores_equal_oracle_bits(self, seed, rounds):
        pool, rng = self._pool(seed, decimals=1 if seed % 2 else 3)
        train = rng.integers(0, pool.n, size=120)  # duplicates on purpose
        test = np.arange(0, pool.n, 3)
        features, labels = pool.features[train], pool.labels[train]
        expected_raw = oracle_boosted_raw(features, labels, pool.features[test],
                                          pool.m, rounds)
        onehot = (labels[:, None] == np.arange(1, pool.m + 1)).astype(float)
        raw = boosted_stump_scores(features, onehot, pool.features[test],
                                   rounds=rounds, shrinkage=0.1)
        assert raw.tobytes() == expected_raw.tobytes()
        scores = train_and_score(ClassifierKind.BOOSTED_STUMPS, split_of(train, test),
                                 pool, hyper={"rounds": rounds})
        assert scores.tobytes() == oracle_softmax(expected_raw).tobytes()

    @pytest.mark.parametrize("seed", [1, 3, 4, 11])
    def test_unrounded_five_classes_equal_oracle_bits(self, seed):
        # with unrounded features, the splits that isolate one extreme row tie
        # across features, so the bits of each feature's SSE pick the winner
        rng = generator(seed, "stump-oracle-m5")
        features = rng.normal(size=(120, 4))
        labels = rng.integers(1, 6, size=120)
        test = rng.normal(size=(30, 4))
        onehot = (labels[:, None] == np.arange(1, 6)).astype(float)
        raw = boosted_stump_scores(features, onehot, test, rounds=40)
        assert raw.tobytes() == oracle_boosted_raw(features, labels, test, 5, 40).tobytes()

    def test_constant_features_only(self):
        features = np.ones((12, 2))
        labels = np.array([1, 2, 3] * 4)
        pool = DatasetPool(features=features, labels=labels)
        train = np.arange(12)
        scores = train_and_score(ClassifierKind.BOOSTED_STUMPS, split_of(train, train),
                                 pool, hyper={"rounds": 5})
        expected = oracle_softmax(oracle_boosted_raw(features, labels, features, 3, 5))
        assert scores.tobytes() == expected.tobytes()


def oracle_presort(features):
    """The per-run presort the rank presort replaced: a stable mergesort of
    each (n, d) feature column's values."""
    order = np.argsort(features.T, axis=1, kind="mergesort")
    sv = np.take_along_axis(features.T, order, axis=1)
    is_cut = sv[:, :-1] < sv[:, 1:]
    return (order, np.where(is_cut, 0.0, -np.inf),
            np.where(is_cut, 0.5 * (sv[:, :-1] + sv[:, 1:]), np.inf),
            ~is_cut.any(axis=1))


class TestRankPresort:
    # 70,000 distinct values need uint32 ranks, which numpy sorts without radix
    @pytest.mark.parametrize("decimals,n_pool", [(None, 3000), (1, 3000), (0, 3000),
                                                 (None, 70000)])
    def test_pool_ranks_give_the_value_sort_bytes(self, decimals, n_pool):
        rng = generator(31, "presort")
        values = rng.normal(size=(n_pool, 3)) * 3
        # a duplicated and a negated column; rounding adds ties and signed zeros
        values = np.column_stack([values, values[:, 0], -values[:, 1]])
        pool = DatasetPool(features=values if decimals is None else np.round(values, decimals),
                           labels=rng.integers(1, 4, size=n_pool))
        assert (pool.ranks.dtype == np.uint32) == (n_pool > 65536)
        train = rng.integers(0, pool.n, size=(4, 300))  # duplicates on purpose
        stacked = _presort(pool.features[train], pool.ranks[:, train])
        for run, rows in enumerate(train):
            expected = oracle_presort(pool.features[rows])
            for got, want in zip(stacked, expected):
                assert got[run].dtype == want.dtype
                assert got[run].tobytes() == want.tobytes()

    def test_own_ranks_give_the_value_sort_bytes(self):
        features = np.array([[0.0, 2.0], [-0.0, 2.0], [1.5, 2.0], [0.0, 2.0], [-1.0, 2.0]])
        stacked = _presort(features[None], dense_ranks(features)[:, None])
        for got, want in zip(stacked, oracle_presort(features)):
            assert got[0].tobytes() == want.tobytes()


class TestStackedBoostedStumps:
    def test_stack_equals_oracle_bits(self):
        rng = generator(32, "stump-stack")
        features = np.round(rng.normal(size=(6, 150, 3)), 1)
        labels = rng.integers(1, 4, size=(6, 150))
        test = rng.normal(size=(6, 40, 3))
        onehot = (labels[..., None] == np.arange(1, 4)).astype(float)
        raw = boosted_stump_scores(features, onehot, test, rounds=25)
        assert raw.shape == (6, 40, 3)
        for run in range(6):
            expected = oracle_boosted_raw(features[run], labels[run], test[run], 3, 25)
            assert raw[run].tobytes() == expected.tobytes()

    def test_batch_with_single_class_split_in_the_middle_equals_one_split_calls(self):
        cfg = SyntheticDataConfig(m=3, d=3, n_per_class=200,
                                  class_means=default_class_means(3, 3), seed=5)
        pool = generate_pool(cfg)
        rng = generator(33, "stump-batch")
        splits = [split_of(rng.integers(0, pool.n, size=90), rng.choice(pool.n, 30))
                  for _ in range(8)]
        splits[4] = split_of(pool.class_index[2][:90], np.arange(30))
        # a different test size stacks apart
        splits[6] = split_of(splits[6].train_indices, np.arange(0, pool.n, 25))
        spec = ClassifierSpec("boosted_stumps", {"rounds": 30})
        results = train_and_score_batch(spec, splits, pool)
        assert str(results[4]) == "training multiset covers fewer than 2 classes"
        for i in (0, 1, 2, 3, 5, 6, 7):
            alone = train_and_score("boosted_stumps", splits[i], pool, hyper={"rounds": 30})
            assert results[i].tobytes() == alone.tobytes()


class TestHyperKeys:
    @pytest.mark.parametrize("kind,hyper,allowed", [
        ("logistic", {"epoch": 5}, "epochs, step, l2"),
        ("boosted_stumps", {"round": 2}, "rounds, shrinkage"),
    ])
    def test_misspelled_key_rejected(self, kind, hyper, allowed):
        pool = two_class_pool(n_per_class=20)
        train = np.arange(pool.n)
        with pytest.raises(ClassifierError, match=allowed):
            train_and_score(kind, split_of(train, train), pool, hyper=hyper)

    @pytest.mark.parametrize("kind,hyper,rule", [
        ("logistic", {"epochs": -5}, "'epochs' must be an integer >= 0"),
        ("logistic", {"epochs": 2.5}, "'epochs' must be an integer >= 0"),
        ("logistic", {"epochs": "many"}, "'epochs' must be an integer >= 0"),
        ("logistic", {"step": 0.0}, "'step' must be finite and > 0"),
        ("logistic", {"step": float("inf")}, "'step' must be finite and > 0"),
        ("logistic", {"l2": -1e-4}, "'l2' must be finite and >= 0"),
        ("logistic", {"l2": float("nan")}, "'l2' must be finite and >= 0"),
        ("boosted_stumps", {"rounds": 2.7}, "'rounds' must be an integer >= 0"),
        ("boosted_stumps", {"rounds": True}, "'rounds' must be an integer >= 0"),
        ("boosted_stumps", {"shrinkage": -0.1}, "'shrinkage' must be finite and > 0"),
        ("boosted_stumps", {"shrinkage": 10 ** 400}, "'shrinkage' must be finite and > 0"),
    ])
    def test_out_of_range_value_rejected(self, kind, hyper, rule):
        pool = two_class_pool(n_per_class=20)
        train = np.arange(pool.n)
        with pytest.raises(ClassifierError, match=rule):
            train_and_score(kind, split_of(train, train), pool, hyper=hyper)

    @pytest.mark.parametrize("kind,hyper", [
        (ClassifierKind.LOGISTIC, {"epochs": 0, "step": 1e-3, "l2": 0.0}),
        (ClassifierKind.BOOSTED_STUMPS, {"rounds": 3.0, "shrinkage": np.float64(0.5)}),
    ])
    def test_boundary_values_accepted(self, kind, hyper):
        assert resolve_hyper(kind, hyper) == {**HYPER_DEFAULTS[kind], **hyper}


class TestScoreMatrixFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ClassifierError, match="finite"):
            check_score_matrix(np.array([[0.5, 0.5], [bad, 0.5]]), 2)


class TestRowSums:
    @pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 10, 16, 17, 128, 129, 130, 300])
    def test_equal_numpy_row_sum_bits(self, m):
        # _softmax and check_score_matrix add a row's values in this order
        values = np.exp(generator(m, "row-sums").normal(scale=3.0, size=(40, m)))
        assert _row_sums(list(values.T)).tobytes() == values.sum(axis=1).tobytes()


class TestPermutationEquivariance:
    @pytest.mark.parametrize("kind,hyper", [
        (ClassifierKind.LOGISTIC, {"epochs": 60}),
        (ClassifierKind.BOOSTED_STUMPS, {"rounds": 10}),
    ])
    def test_relabeling_permutes_score_columns(self, kind, hyper):
        cfg = SyntheticDataConfig(m=3, d=3, n_per_class=40,
                                  class_means=default_class_means(3, 3), seed=4)
        pool = generate_pool(cfg)
        perm = {1: 3, 2: 1, 3: 2}
        permuted = DatasetPool(features=pool.features.copy(),
                               labels=np.array([perm[v] for v in pool.labels]))
        rng = generator(5, "eq")
        train = rng.integers(0, pool.n, size=60)
        test = np.arange(0, pool.n, 7)
        base = train_and_score(kind, split_of(train, test), pool, hyper=hyper)
        swapped = train_and_score(kind, split_of(train, test), permuted, hyper=hyper)
        for old, new in perm.items():
            assert np.array_equal(base[:, old - 1], swapped[:, new - 1])


RUNNER_OK = """\
import csv, sys
from pathlib import Path

workdir = Path(sys.argv[-1])  # the engine appends its directory last
with open(workdir / "train.csv") as fh:
    train_rows = list(csv.reader(fh))[1:]
m = max(int(row[0]) for row in train_rows)
with open(workdir / "test.csv") as fh:
    test_rows = list(csv.reader(fh))[1:]
with open(workdir / "scores.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow([f"score_{j}" for j in range(1, m + 1)])
    for row in test_rows:
        value = float(row[1])
        hot = min(max(value, 0.0), 1.0)
        rest = (1.0 - hot) / (m - 1)
        writer.writerow([hot] + [rest] * (m - 1))
"""

# RUNNER_OK that also copies the split files it was given into the
# directory named by its first argument
RUNNER_KEEPS_SPLIT = RUNNER_OK + """
import shutil
for name in ("train.csv", "test.csv"):
    shutil.copy(workdir / name, sys.argv[1])
"""

RUNNER_FAILS = "import sys; sys.exit(3)\n"

RUNNER_NAN = """\
import sys
from pathlib import Path
workdir = Path(sys.argv[1])
rows = ["nan,nan"] * 10
(workdir / "scores.csv").write_text("score_1,score_2\\n" + "\\n".join(rows) + "\\n")
"""

RUNNER_BAD_ROWS = """\
import sys
from pathlib import Path
workdir = Path(sys.argv[1])
(workdir / "scores.csv").write_text("score_1,score_2\\n0.9,0.2\\n")
"""

RUNNER_MALFORMED_ROW = """\
import sys
from pathlib import Path
workdir = Path(sys.argv[2])
rows = ["0.5,0.5"] * 10
rows[3] = sys.argv[1]
(workdir / "scores.csv").write_text("score_1,score_2\\n" + "\\n".join(rows) + "\\n")
"""


class TestExternalRunner:
    def _pool(self):
        rng = generator(6, "ext")
        features = rng.random((30, 2))
        labels = np.array([1, 2] * 15)
        return DatasetPool(features=features, labels=labels)

    def _split(self, pool):
        train = np.array([0, 0, 1, 2, 3, 4, 5])  # duplicate on purpose
        test = np.arange(10, 20)
        return split_of(train, test)

    def _keeping_runner(self, tmp_path):
        """A RUNNER_KEEPS_SPLIT command and the directory it copies into."""
        runner = tmp_path / "runner.py"
        runner.write_text(RUNNER_KEEPS_SPLIT)
        kept = tmp_path / "kept"
        kept.mkdir()
        return ["python3", str(runner), str(kept)], kept

    def test_protocol_round_trip(self, tmp_path):
        command, kept = self._keeping_runner(tmp_path)
        pool = self._pool()
        scores = train_and_score(ClassifierKind.EXTERNAL, self._split(pool), pool,
                                 command=command)
        assert scores.shape == (10, 2)
        assert np.max(np.abs(scores.sum(axis=1) - 1.0)) <= 1e-9
        # training duplicates materialize as repeated rows
        train_lines = (kept / "train.csv").read_text().splitlines()
        assert len(train_lines) == 1 + 7

    def test_split_files_in_pool_csv_format(self, tmp_path):
        command, kept = self._keeping_runner(tmp_path)
        pool = self._pool()
        split = self._split(pool)
        train_and_score(ClassifierKind.EXTERNAL, split, pool, command=command)
        for name, rows in (("train", split.train_indices), ("test", split.test_indices)):
            expected = ["label,f1,f2"] + [
                ",".join([str(pool.labels[i])] + [f"{v:.10g}" for v in pool.features[i]])
                for i in rows]
            text = (kept / f"{name}.csv").read_text()
            assert text == "\n".join(expected) + "\n"

    def test_nonzero_exit_reported(self, tmp_path):
        runner = tmp_path / "runner.py"
        runner.write_text(RUNNER_FAILS)
        pool = self._pool()
        with pytest.raises(ExternalRunnerError, match="exited 3"):
            train_and_score(ClassifierKind.EXTERNAL, self._split(pool), pool,
                            command=["python3", str(runner)])

    def test_row_count_mismatch_reported(self, tmp_path):
        runner = tmp_path / "runner.py"
        runner.write_text(RUNNER_BAD_ROWS)
        pool = self._pool()
        with pytest.raises(ExternalRunnerError, match="expected 10 rows"):
            train_and_score(ClassifierKind.EXTERNAL, self._split(pool), pool,
                            command=["python3", str(runner)])

    @pytest.mark.parametrize("row,match", [
        ("0.5,high", "could not convert string to float: 'high'"),
        ("0.25,0.25,0.5", "expected 2 fields, got 3"),
    ])
    def test_malformed_score_row_names_its_line(self, tmp_path, row, match):
        runner = tmp_path / "runner.py"
        runner.write_text(RUNNER_MALFORMED_ROW)
        pool = self._pool()
        with pytest.raises(ExternalRunnerError, match=r"scores\.csv:5: " + match):
            train_and_score(ClassifierKind.EXTERNAL, self._split(pool), pool,
                            command=["python3", str(runner), row])

    def test_nan_scores_rejected(self, tmp_path):
        runner = tmp_path / "runner.py"
        runner.write_text(RUNNER_NAN)
        pool = self._pool()
        with pytest.raises(ClassifierError, match="finite"):
            train_and_score(ClassifierKind.EXTERNAL, self._split(pool), pool,
                            command=["python3", str(runner)])

    def test_missing_command_rejected(self):
        pool = self._pool()
        with pytest.raises(ClassifierError, match="command"):
            train_and_score(ClassifierKind.EXTERNAL, self._split(pool), pool)

    def test_command_on_a_built_in_kind_rejected(self):
        pool = self._pool()
        with pytest.raises(ClassifierError, match="^only external classifiers take a command$"):
            train_and_score(ClassifierKind.LOGISTIC, self._split(pool), pool,
                            command=["python3", "runner.py"])

    def test_string_command_rejected(self, tmp_path):
        command, kept = self._keeping_runner(tmp_path)
        pool = self._pool()
        with pytest.raises(ClassifierError, match="^external classifier needs a command list$"):
            train_and_score(ClassifierKind.EXTERNAL, self._split(pool), pool,
                            command=" ".join(command))
        assert list(kept.iterdir()) == []  # the runner never started
