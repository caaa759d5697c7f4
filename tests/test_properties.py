"""Property tests: random inputs, fixed example order (derandomized)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrobust import DatasetPool, SamplingConfig, SamplingError, class_counts, compose_split
from mixrobust.classifiers import boosted_stump_scores

from test_classifiers import oracle_boosted_raw

fixed = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def stump_problems(draw):
    """Training features whose columns are continuous, rounded to one decimal,
    constant, or a copy of an earlier column; labels in 1..m."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 5))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["normal", "rounded", "constant", "copy"]),
                              min_size=d, max_size=d)):
        if kind == "copy" and columns:
            columns.append(columns[rng.integers(len(columns))])
        elif kind == "constant":
            columns.append(np.full(n, rng.normal()))
        else:
            values = rng.normal(size=n)
            columns.append(np.round(values, 1) if kind == "rounded" else values)
    features = np.column_stack(columns)
    labels = rng.integers(1, m + 1, size=n)
    test = np.vstack([features[: n // 2], rng.normal(size=(5, d))])
    return features, labels, test, m, draw(st.integers(0, 10))


@fixed
@given(stump_problems())
def test_boosted_stumps_equal_per_class_oracle_bits(problem):
    features, labels, test, m, rounds = problem
    onehot = (labels[:, None] == np.arange(1, m + 1)).astype(float)
    raw = boosted_stump_scores(features, onehot, test, rounds=rounds)
    assert raw.tobytes() == oracle_boosted_raw(features, labels, test, m, rounds).tobytes()


@st.composite
def mixtures(draw, min_size=2, max_size=6):
    weights = draw(st.lists(st.floats(0, 1), min_size=min_size, max_size=max_size)
                   .filter(lambda w: sum(w) > 0))
    return np.asarray(weights) / np.sum(weights)


@fixed
@given(mixtures(), st.integers(1, 100_000))
def test_class_counts_sum_to_total(mixture, total):
    counts = class_counts(mixture, total)
    assert counts.sum() == total
    assert (counts >= 0).all()


@fixed
@given(st.lists(st.integers(1, 80), min_size=2, max_size=5).flatmap(
           lambda sizes: st.tuples(st.just(sizes), mixtures(len(sizes), len(sizes)),
                                   mixtures(len(sizes), len(sizes)))),
       st.floats(0.01, 0.5), st.floats(0.01, 0.3), st.integers(0, 2 ** 32 - 1))
def test_compose_split_test_rows_disjoint_from_training(classes, train_frac, test_frac,
                                                        seed):
    sizes, train_mixture, test_mixture = classes
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    pool = DatasetPool(features=np.zeros((labels.size, 1)), labels=labels)
    rng = np.random.default_rng(seed)
    try:
        split = compose_split(pool, train_mixture, test_mixture,
                              SamplingConfig(train_frac, test_frac), rng, rng)
    except SamplingError:
        return  # a class ran short of free rows: refused, not overlapped
    test = split.test_indices
    assert np.unique(test).size == test.size
    assert not np.isin(test, split.train_indices).any()
    assert np.bincount(labels[test], minlength=len(sizes) + 1)[1:].tolist() == \
        split.test_counts.tolist()
