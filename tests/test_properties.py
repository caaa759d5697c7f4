"""Property tests: random inputs, fixed example order (derandomized)."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrobust import (ClassifierError, DatasetPool, DesignConfig, MetricsError, RunOutcome,
                       SamplingConfig, SamplingError, TestScenario, auc_ovr, build_run_plan,
                       class_counts, compose_split, read_plan_csv, write_outcomes_csv,
                       write_plan_csv)
from mixrobust.classifiers import (_softmax, boosted_stump_scores, check_score_matrix,
                                   fit_logistic_ovr)
from mixrobust.design import stored_sum_bound
from mixrobust.metrics import aucs_ovr, read_outcome_table
from mixrobust.sampling import split_sizes

from test_classifiers import (oracle_boosted_raw, oracle_check_score_matrix,
                              oracle_logistic_weights, oracle_softmax)
from test_metrics import midranks, oracle_auc_ovr

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


def outcome(call, *args):
    """What call(*args) gives: its result's bits, or its error's type and text."""
    try:
        result = call(*args)
    except (ClassifierError, MetricsError) as exc:
        return type(exc), str(exc)
    return np.asarray(result).tobytes()


def column_of(kind, rng, shape):
    """Values of one kind: continuous, coarse (many ties), signed zeros, all
    tied, huge (so a shift by the row max overflows to -inf), or continuous
    with NaNs and infinities among them."""
    if kind == "coarse":
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "zeros":
        return rng.choice([0.0, -0.0], size=shape)
    if kind == "tied":
        return np.full(shape, rng.normal())
    if kind == "huge":
        return rng.choice([-1e308, 1e308, 0.0], size=shape)
    values = rng.normal(scale=4.0, size=shape)
    if kind == "special":
        special = rng.random(shape) < 0.1
        values[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    return values


COLUMN_KINDS = ["normal", "coarse", "zeros", "tied", "huge", "special"]


@st.composite
def logit_stacks(draw):
    """(B, n, m) logits over m = 2..10 classes, each class column of one kind."""
    batch, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 30)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=m, max_size=m))
    return np.stack([column_of(kind, rng, (batch, n)) for kind in kinds], axis=-1)


@fixed
@example(np.array([[[1.0, 2.0, np.nan], [3.0, 3.0, 3.0]]]))
@example(np.array([[[1e308, -1e308], [-0.0, 0.0]]]))
@given(logit_stacks())
def test_softmax_and_score_check_equal_oracle_bits(logits):
    m = logits.shape[-1]
    stacked = _softmax(logits)
    for run_logits, run_scores in zip(logits, stacked):
        want = oracle_softmax(run_logits)
        nan = np.isnan(want)
        for got in (run_scores, _softmax(run_logits)):
            assert np.isnan(got).tolist() == nan.tolist()
            assert got[~nan].tobytes() == want[~nan].tobytes()
        assert (outcome(check_score_matrix, run_scores, m)
                == outcome(oracle_check_score_matrix, want, m))


@st.composite
def edge_score_matrices(draw):
    """(n, m) softmax rows with entries nudged across the check's 1e-9 edges,
    set in [-1e-9, 0) or set to a signed zero."""
    n, m = draw(st.integers(1, 20)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scores = oracle_softmax(rng.normal(size=(n, m)))
    nudged = rng.random((n, m)) < 0.2
    scores[nudged] += rng.choice([-2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9],
                                 size=int(nudged.sum()))
    below = rng.random((n, m)) < 0.1
    scores[below] = rng.uniform(-1e-9, 0.0, size=int(below.sum()))
    zeros = rng.random((n, m)) < 0.1
    scores[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return scores


@fixed
# a row whose sum in numpy's pairwise order is over 1 + 1e-9, and left to right is not
@example(np.array([[0.09938952476934443, 0.0551186074055968, 0.08677746137587217,
                    0.020022556798263248, 0.32803063793185605, 0.0009455766204911917,
                    0.2723426734410354, 0.055776299729174576, 0.029135617567510055,
                    0.052461045360856134]]))
@given(edge_score_matrices())
def test_score_check_on_edge_matrices_equals_oracle(scores):
    m = scores.shape[1]
    assert outcome(check_score_matrix, scores, m) == outcome(oracle_check_score_matrix, scores, m)


@st.composite
def auc_problems(draw):
    """(n, m) scores, each class column of one kind, and labels in 1..m in
    which one class may hold a single row or none."""
    n, m = draw(st.integers(1, 60)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=m, max_size=m))
    scores = np.column_stack([column_of(kind, rng, n) for kind in kinds])
    labels = rng.integers(1, m + 1, size=n)
    shown = draw(st.sampled_from(["all", "single", "none"]))
    if shown != "all":
        j = int(rng.integers(1, m + 1))
        labels[labels == j] = j % m + 1
        if shown == "single":
            labels[rng.integers(n)] = j
    return scores, labels


@fixed
@example((np.array([[0.5, 0.5]] * 4), np.array([1, 2, 1, 2])))
@example((np.array([[0.2, 0.8], [0.7, 0.3], [0.7, 0.3]]), np.array([1, 2, 2])))
@given(auc_problems())
def test_aucs_equal_oracle_bits(problem):
    scores, labels = problem
    m = scores.shape[1]
    want = [outcome(oracle_auc_ovr, scores, labels, j) for j in range(1, m + 1)]
    assert [outcome(auc_ovr, scores, labels, j) for j in range(1, m + 1)] == want
    errors = [error for error in want if isinstance(error, tuple)]
    assert outcome(aucs_ovr, scores, labels) == (errors[0] if errors else b"".join(want))


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
