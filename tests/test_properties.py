"""Property tests: random inputs, fixed example order (derandomized)."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrobust import (DatasetPool, DesignConfig, RunOutcome, SamplingConfig, SamplingError,
                       TestScenario, auc_ovr, build_run_plan, class_counts, compose_split,
                       read_plan_csv, write_outcomes_csv, write_plan_csv)
from mixrobust.classifiers import boosted_stump_scores, fit_logistic_ovr
from mixrobust.design import stored_sum_bound
from mixrobust.metrics import midranks, read_outcome_table
from mixrobust.sampling import split_sizes

from test_classifiers import oracle_boosted_raw, oracle_logistic_weights

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
def stump_stacks(draw):
    """B runs of one training and one test size. Each column kind is shared
    by the runs, its values are each run's own: continuous, rounded to one
    decimal, constant, a copy of an earlier column, or signed zeros."""
    batch, n = draw(st.integers(1, 8)), draw(st.integers(2, 60))
    d, m = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["normal", "rounded", "constant", "copy",
                                               "zeros"]), min_size=d, max_size=d)):
        if kind == "copy" and columns:
            columns.append(columns[rng.integers(len(columns))])
        elif kind == "constant":
            columns.append(np.full((batch, n), rng.normal()))
        elif kind == "zeros":
            columns.append(rng.choice([-0.0, 0.0, 1.0], size=(batch, n)))
        else:
            values = rng.normal(size=(batch, n))
            columns.append(np.round(values, 1) if kind == "rounded" else values)
    features = np.stack(columns, axis=-1)
    labels = rng.integers(1, m + 1, size=(batch, n))
    test = np.concatenate([features[:, : n // 2], rng.normal(size=(batch, 5, d))], axis=1)
    return features, labels, test, m, draw(st.integers(0, 10))


@fixed
@given(stump_stacks())
def test_stacked_boosted_stumps_equal_per_run_oracle_bits(problem):
    features, labels, test, m, rounds = problem
    onehot = (labels[..., None] == np.arange(1, m + 1)).astype(float)
    raw = boosted_stump_scores(features, onehot, test, rounds=rounds)
    for run, x, y, t in zip(raw, features, labels, test):
        assert run.tobytes() == oracle_boosted_raw(x, y, t, m, rounds).tobytes()


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
    config = SamplingConfig(train_frac, test_frac)
    try:
        split = compose_split(pool, train_mixture, test_mixture, config, rng, rng)
    except SamplingError:
        return  # a class ran short of free rows: refused, not overlapped
    test = split.test_indices
    assert np.unique(test).size == test.size
    assert not np.isin(test, split.train_indices).any()
    assert np.bincount(labels[test], minlength=len(sizes) + 1)[1:].tolist() == \
        class_counts(test_mixture, split_sizes(config, labels.size)[1]).tolist()


@st.composite
def logistic_stacks(draw):
    """B fits of one size; each fit's rows are drawn with replacement from its
    own normal table, so rows repeat as in a bootstrap training draw."""
    batch, n = draw(st.integers(1, 8)), draw(st.integers(2, 60))
    d, m = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = rng.normal(size=(batch, n, d)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    rows = rng.integers(0, n, size=(batch, n))
    features = np.take_along_axis(table, rows[..., None], axis=1)
    labels = rng.integers(1, m + 1, size=(batch, n))
    return features, labels, m, draw(st.integers(0, 30))


@fixed
@given(logistic_stacks())
def test_stacked_logistic_fit_equals_per_fit_oracle_bits(problem):
    features, labels, m, epochs = problem
    weights = fit_logistic_ovr(features, labels, m, epochs=epochs)
    for fit, x, y in zip(weights, features, labels):
        assert fit.tobytes() == oracle_logistic_weights(x, y, m, epochs).tobytes()


# coarse integer scores, so ties are common
scores = st.lists(st.integers(-6, 6), min_size=1, max_size=60).map(
    lambda v: np.asarray(v, dtype=float))


@fixed
@given(scores, st.randoms(use_true_random=False))
def test_midranks_sum_and_permutation_equivariance(values, random):
    n = values.size
    ranks = midranks(values)
    assert ranks.sum() == n * (n + 1) / 2
    perm = np.array(random.sample(range(n), n))
    assert midranks(values[perm]).tolist() == ranks[perm].tolist()


@st.composite
def labelled_scores(draw):
    """(n, 2) scores whose first column is coarse, and labels holding both
    class 1 and class 2."""
    column = draw(scores.filter(lambda v: v.size >= 2))
    labels = np.asarray(draw(st.lists(st.sampled_from([1, 2]), min_size=column.size,
                                      max_size=column.size)
                             .filter(lambda v: len(set(v)) == 2)))
    return np.column_stack([column, -column]), labels


@fixed
@given(labelled_scores())
def test_auc_of_negated_scores_is_one_minus_auc(problem):
    score_matrix, labels = problem
    auc = auc_ovr(score_matrix, labels, 1)
    assert abs(auc_ovr(-score_matrix, labels, 1) - (1.0 - auc)) <= 1e-12


@fixed
@given(labelled_scores(), st.sampled_from([np.exp, np.arctan, lambda v: v ** 3 + v,
                                           lambda v: 2.5 * v - 7.0]))
def test_auc_unchanged_under_increasing_transform(problem, transform):
    score_matrix, labels = problem
    assert auc_ovr(transform(score_matrix), labels, 1) == auc_ovr(score_matrix, labels, 1)


@st.composite
def designs(draw):
    """A one-covariate design over m = 2..10 classes with min_prop in [0, 1/m)."""
    m = draw(st.integers(2, 10))
    min_prop = draw(st.floats(0.0, 1.0 / m, exclude_max=True))
    return DesignConfig(m=m, min_prop=min_prop, covariate_levels=((1.0,),),
                        replicates=1, seed=m)


def close_mixtures(got, want):
    """Read-back proportions sum to 1 and are off what was written by at most
    the rounding of one part plus the renormalization of the row's sum, each
    within stored_sum_bound."""
    got, want = np.asarray(got), np.asarray(want)
    return (np.all(np.abs(got - want) <= 2 * stored_sum_bound(got.shape[-1]))
            and np.all(np.abs(got.sum(axis=-1) - 1.0) <= 1e-12))


@fixed
@example(DesignConfig(m=6, min_prop=0.01, covariate_levels=((1.0,),), replicates=1))
@example(DesignConfig(m=7, min_prop=0.02, covariate_levels=((1.0,),), replicates=1))
@given(designs())
def test_plan_and_outcomes_round_trip_for_every_design(design):
    # the reverse scenario's runs print every proportion row a plan can hold:
    # balanced test mixtures are the centroid, consistent ones the training
    # mixtures
    plan = build_run_plan(design, (TestScenario.REVERSE,))
    m = design.m
    scored = RunOutcome.from_aucs(0, 1, TestScenario.REVERSE, (1.0,), np.ones(m) / m,
                                  np.linspace(0.6, 0.9, m))
    outcomes = [replace(scored, run_id=r.run_id, train_mixture=r.train_mixture)
                for r in plan.runs]
    with tempfile.TemporaryDirectory() as tmp:
        write_plan_csv(plan, Path(tmp) / "plan.csv")
        back = read_plan_csv(Path(tmp) / "plan.csv")
        write_outcomes_csv(outcomes, m, design.h, Path(tmp) / "outcomes.csv")
        table = read_outcome_table(Path(tmp) / "outcomes.csv")
    assert [(r.run_id, r.scenario, r.replicate, r.covariates, r.seed) for r in back] == \
        [(r.run_id, r.scenario, r.replicate, r.covariates, r.seed) for r in plan.runs]
    for name in ("train_mixture", "test_mixture"):
        assert close_mixtures([getattr(r, name) for r in back],
                              [getattr(r, name) for r in plan.runs])
    assert table.run_id.tolist() == [r.run_id for r in plan.runs]
    assert close_mixtures(table.train_mixture, [r.train_mixture for r in plan.runs])
