"""Synthetic Gaussian pools and the two built-in reference classifiers.

The classifiers are deliberately small: a one-vs-rest logistic model fit by
full-batch gradient descent, and one-vs-rest boosted decision stumps. That
keeps two distinct inductive biases (linear vs. tree) for the algorithm
covariate. Real trainers attach through the external-runner protocol.
"""

from __future__ import annotations

import csv
import math
import numbers
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .sampling import DatasetPool, SampleSplit, write_pool_csv
from .seeding import generator

SCORE_ROW_TOL = 1e-9
EXTERNAL_ROW_TOL = 1e-6


class ClassifierError(ValueError):
    pass


class ExternalRunnerError(RuntimeError):
    pass


class ClassifierKind(Enum):
    LOGISTIC = "logistic"
    BOOSTED_STUMPS = "boosted_stumps"
    EXTERNAL = "external"

    @classmethod
    def parse(cls, name):
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise ClassifierError(f"unknown classifier kind {name!r}") from None


HYPER_DEFAULTS = {
    ClassifierKind.LOGISTIC: {"epochs": 500, "step": 0.1, "l2": 1e-4},
    ClassifierKind.BOOSTED_STUMPS: {"rounds": 100, "shrinkage": 0.1},
    ClassifierKind.EXTERNAL: {},
}


# what each hyper key accepts: (description, test on the value as a float)
HYPER_RANGES = {
    "epochs": ("an integer >= 0", lambda x: x >= 0 and x.is_integer()),
    "rounds": ("an integer >= 0", lambda x: x >= 0 and x.is_integer()),
    "step": ("finite and > 0", lambda x: 0 < x < math.inf),
    "shrinkage": ("finite and > 0", lambda x: 0 < x < math.inf),
    "l2": ("finite and >= 0", lambda x: 0 <= x < math.inf),
}


def _as_float(value):
    """`value` as a float, or None when it is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def resolve_hyper(kind: ClassifierKind, hyper=None):
    """The kind's defaults overridden by `hyper`. A key the kind does not take,
    or a value outside the key's HYPER_RANGES rule, raises ClassifierError,
    so neither a misspelling nor a bad value can fall back silently."""
    defaults = HYPER_DEFAULTS[kind]
    hyper = dict(hyper or {})
    unknown = [key for key in hyper if key not in defaults]
    if unknown:
        raise ClassifierError(
            f"{kind.value} takes no hyper key {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(defaults) or 'none'}")
    for key, value in hyper.items():
        rule, accepts = HYPER_RANGES[key]
        number = _as_float(value)
        if number is None or not accepts(number):
            raise ClassifierError(f"{kind.value} hyper {key!r} must be {rule}, "
                                  f"got {value!r}")
    return {**defaults, **hyper}


@dataclass(frozen=True)
class SyntheticDataConfig:
    """Gaussian blobs: class j sits at class_means[j] with isotropic noise
    scaled by noise_scale / separability_boost[j]."""

    m: int
    d: int
    n_per_class: int
    class_means: tuple
    noise_scale: float = 1.0
    separability_boost: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 2 or self.d < 1 or self.n_per_class < 1:
            raise ClassifierError("m, d and n_per_class must be positive (m >= 2)")
        if not 0 < self.noise_scale < math.inf:
            raise ClassifierError("noise_scale must be finite and positive")
        means = tuple(tuple(float(v) for v in row) for row in self.class_means)
        if len(means) != self.m or any(len(row) != self.d for row in means):
            raise ClassifierError(f"class_means must be {self.m} vectors of length {self.d}")
        if not np.isfinite(means).all():
            raise ClassifierError("class_means must be finite")
        boost = self.separability_boost
        boost = tuple(1.0 for _ in range(self.m)) if boost is None else tuple(float(b) for b in boost)
        if len(boost) != self.m or not all(0 < b < math.inf for b in boost):
            raise ClassifierError("separability_boost needs one finite positive entry per class")
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "separability_boost", boost)


def default_class_means(m, d, separation=3.0):
    """One-hot class means scaled by `separation`; exchangeable geometry."""
    if d < m:
        raise ClassifierError(f"default means need d >= m (got d={d}, m={m})")
    means = np.zeros((m, d))
    means[np.arange(m), np.arange(m)] = separation
    return tuple(tuple(row) for row in means)


def generate_pool(config: SyntheticDataConfig) -> DatasetPool:
    """Draw n_per_class points per class; byte-identical under a fixed seed."""
    rng = generator(config.seed, "pool")
    blocks, labels = [], []
    means = np.asarray(config.class_means, dtype=float)
    for j in range(config.m):
        scale = config.noise_scale / config.separability_boost[j]
        blocks.append(means[j] + scale * rng.standard_normal((config.n_per_class, config.d)))
        labels.append(np.full(config.n_per_class, j + 1, dtype=int))
    return DatasetPool(features=np.vstack(blocks), labels=np.concatenate(labels))


def check_score_matrix(scores, m=None, tol=SCORE_ROW_TOL):
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or (m is not None and scores.shape[1] != m):
        raise ClassifierError(f"score matrix has shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ClassifierError("scores must be finite")
    if scores.size and (scores.min() < -tol or scores.max() > 1 + tol):
        raise ClassifierError("scores must lie in [0, 1]")
    if scores.size and np.max(np.abs(scores.sum(axis=1) - 1.0)) > tol:
        raise ClassifierError(f"score rows must sum to 1 within {tol}")
    return scores


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    # canonical (sorted) summation order so relabeling classes permutes the
    # scores exactly, not just to rounding
    totals = np.sort(expd, axis=1).sum(axis=1, keepdims=True)
    return expd / totals


def _onehot(labels, m):
    """(..., n, m) indicators of the 1-based (..., n) labels."""
    return (labels[..., None] == np.arange(1, m + 1)).astype(float)


def logistic_loss(weights, features_b, targets, l2):
    z = features_b @ weights
    # log(1 + exp(-|z|)) form keeps the loss finite for large margins
    per = np.logaddexp(0.0, z) - targets * z
    return (per.mean(axis=(-2, -1))
            + 0.5 * l2 * np.sum(weights[..., :-1, :] ** 2, axis=(-2, -1)))


def fit_logistic_ovr(features, labels, m, epochs=500, step=0.1, l2=1e-4,
                     loss_every=0):
    """One-vs-rest logistic weights via full-batch gradient descent.

    All class columns train jointly (the loss separates per class). Leading
    axes stack independent fits: (..., n, d) features and (..., n) labels
    give (..., d + 1, m) weights, each equal bit for bit to its own
    unstacked fit. That holds because every product is one gemm per fit on
    the same operands: the transposed features stay a `swapaxes` view, not
    a contiguous copy, which would be summed in another order. Returns
    (weights, losses); losses is populated every `loss_every` epochs when
    that is nonzero, one value per fit.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[-2]
    features_b = np.concatenate([features, np.ones(features.shape[:-1] + (1,))],
                                axis=-1)
    features_t = np.swapaxes(features_b, -1, -2)
    targets = _onehot(np.asarray(labels, dtype=int), m)
    weights = np.zeros(features_b.shape[:-2] + (features_b.shape[-1], m))
    # one (..., n, m) block for every epoch: fresh blocks of this size cost
    # page faults at large n
    probs = np.empty(targets.shape)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged fit fails by name
        for epoch in range(epochs):
            if loss_every and epoch % loss_every == 0:
                losses.append(logistic_loss(weights, features_b, targets, l2))
            # probs = 1 / (1 + exp(-(features_b @ weights))) - targets
            np.matmul(features_b, weights, out=probs)
            np.negative(probs, out=probs)
            np.exp(probs, out=probs)
            probs += 1.0
            np.divide(1.0, probs, out=probs)
            probs -= targets
            grad = features_t @ probs
            grad /= n
            grad[..., :-1, :] += l2 * weights[..., :-1, :]
            weights -= step * grad
    if loss_every:
        losses.append(logistic_loss(weights, features_b, targets, l2))
    return weights, losses


def logistic_scores(weights, features):
    features = np.asarray(features, dtype=float)
    features_b = np.hstack([features, np.ones((features.shape[0], 1))])
    return _softmax(features_b @ weights)


def best_stump_split(values, residuals):
    """Single-feature stump minimizing squared error on the residuals.

    Returns (threshold, left_mean, right_mean, sse); threshold is the
    midpoint between the adjacent sorted values around the best cut, and
    None when the feature is constant. Needs at least two values.
    """
    values = np.asarray(values, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    split = _best_splits(residuals[None, :], *_presort(values[:, None]))
    threshold, left, right, sse = (float(table[0, 0]) for table in split)
    return None if threshold == np.inf else threshold, left, right, sse


def _presort(features):
    """Per-run facts of the (n, d) training features, shared by every round
    and class: the stable sort order of each feature, shape (d, n); a 0/-inf
    mask of the n - 1 sorted positions, 0 where a cut between distinct
    values falls; each cut's midpoint threshold (+inf elsewhere, so a
    constant feature's stump sends every row left); and the constant flags."""
    order = np.argsort(features.T, axis=1, kind="mergesort")
    sv = np.take_along_axis(features.T, order, axis=1)
    is_cut = sv[:, :-1] < sv[:, 1:]
    return (order, np.where(is_cut, 0.0, -np.inf),
            np.where(is_cut, 0.5 * (sv[:, :-1] + sv[:, 1:]), np.inf),
            ~is_cut.any(axis=1))


def _best_splits(residuals, order, mask, thresholds, constant):
    """Every class's best stump on every feature, as four (m, d) tables
    (threshold, left_mean, right_mean, sse), for the (m, n) residuals.

    One pass scores every cut: the left sums are a cumsum of the residuals
    gathered in each feature's sorted order. The tie rule downstream
    compares SSEs within 1e-15, so each must keep the bits of a 1-D
    `sr @ sr` in that order: `take` gathers into contiguous rows, whose
    batched matmul sums like `sr @ sr`; a strided gather or einsum does not.
    The work is done in place, because fresh blocks of this size, freed
    every round, cost page faults.
    """
    n = residuals.shape[1]
    prefix = residuals.take(order, axis=1)
    total_sq = np.matmul(prefix[..., None, :], prefix[..., :, None])[..., 0, 0]
    np.cumsum(prefix, axis=-1, out=prefix)
    left_sum = prefix[..., :-1]
    k = np.arange(1, n)
    gain = np.square(left_sum)
    gain /= k
    right = prefix[..., -1:] - left_sum
    np.square(right, out=right)
    right /= n - k
    gain += right
    gain += mask
    at = (np.arange(residuals.shape[0])[:, None], np.arange(order.shape[0]),
          gain.argmax(axis=-1))
    cut = at[2] + 1
    left = left_sum[at]
    # a constant feature's stable order is the identity, so this is the
    # mean of its sorted residuals
    mean = residuals.mean(axis=1)[:, None]
    return (thresholds[at[1:]],
            np.where(constant, mean, left / cut),
            np.where(constant, mean, (prefix[..., -1] - left) / (n - cut)),
            total_sq - np.where(constant, n * mean ** 2, gain[at]))


# the running best over ascending features moves only for an SSE lower by
# more than 1e-15, so a feature and its duplicate keep the first-listed one
_keep_first = np.frompyfunc(lambda best, sse: sse if sse < best - 1e-15 else best, 2, 1)


def boosted_stump_scores(features, targets, test_features, rounds=100, shrinkage=0.1):
    """(n_test, m) raw scores of additive squared-error stumps, one model per
    column of the one-hot `targets`. Features are sorted and cut once per
    run; each round scores every cut of every feature for all classes in one
    pass and applies the m chosen stumps to the train and test rows at once."""
    n = features.shape[0]
    presorted = _presort(features)
    rows = np.concatenate([features.T, test_features.T], axis=1)
    targets = np.ascontiguousarray(targets.T)
    current = np.repeat(targets.mean(axis=1)[:, None], rows.shape[1], axis=1)
    classes = np.arange(targets.shape[0])
    for _ in range(rounds):
        threshold, left, right, sse = _best_splits(targets - current[:, :n], *presorted)
        # the scan's final best SSE first appears at the feature it kept
        best = _keep_first.reduce(sse, axis=1).astype(float)
        feature = (sse == best[:, None]).argmax(axis=1)
        chosen = classes, feature
        current += np.where(rows[feature] <= threshold[chosen][:, None],
                            shrinkage * left[chosen][:, None],
                            shrinkage * right[chosen][:, None])
    return current[:, n:].T.copy()


def train_and_score(kind, split: SampleSplit, pool: DatasetPool, hyper=None,
                    command=None, workdir=None):
    """Fit the requested classifier on the split and score the test rows.

    Returns an (n_test, m) row-stochastic score matrix. EXTERNAL delegates
    to `command` via the file protocol; `workdir` defaults to a fresh
    temporary directory. This is the one-split call of
    `train_and_score_batch`, and raises what that returns as the error.
    """
    [result] = train_and_score_batch(kind, [split], pool, hyper=hyper,
                                     command=command, workdir=workdir)
    if isinstance(result, Exception):
        raise result
    return result


def train_and_score_batch(kind, splits, pool: DatasetPool, hyper=None,
                          command=None, workdir=None):
    """`train_and_score` for every split of one pool. Returns, per split, its
    score matrix or the ClassifierError or ExternalRunnerError it raised, so
    one split's failure leaves the others' scores as they would be alone.

    Logistic splits that draw the same number of training rows train as one
    stacked gradient descent; boosted stumps and external runners go one
    split at a time.
    """
    try:
        kind = kind if isinstance(kind, ClassifierKind) else ClassifierKind.parse(kind)
        settings = resolve_hyper(kind, hyper)
    except ClassifierError as exc:
        return [exc] * len(splits)
    if kind is ClassifierKind.EXTERNAL:
        return [_caught(run_external, command, split, pool, workdir=workdir)
                for split in splits]

    results = [_caught(_training_rows, split, pool) for split in splits]
    trainable = [i for i, rows in enumerate(results) if not isinstance(rows, Exception)]
    if kind is ClassifierKind.BOOSTED_STUMPS:
        for i in trainable:
            results[i] = _caught(_boosted_stump_result, results[i], splits[i], pool,
                                 int(settings["rounds"]), float(settings["shrinkage"]))
        return results
    stacks = {}
    for i in trainable:
        stacks.setdefault(results[i].size, []).append(i)
    for stack in stacks.values():
        train = np.stack([results[i] for i in stack])
        weights, _ = fit_logistic_ovr(pool.features[train], pool.labels[train], pool.m,
                                      epochs=int(settings["epochs"]),
                                      step=float(settings["step"]),
                                      l2=float(settings["l2"]))
        for i, run_weights in zip(stack, weights):
            results[i] = _caught(_logistic_result, run_weights, splits[i], pool)
    return results


def _caught(call, *args, **kwargs):
    """call(*args, **kwargs), or the ClassifierError or ExternalRunnerError it raised."""
    try:
        return call(*args, **kwargs)
    except (ClassifierError, ExternalRunnerError) as exc:
        return exc


def _training_rows(split: SampleSplit, pool: DatasetPool):
    train = np.asarray(split.train_indices, dtype=int)
    if np.unique(pool.labels[train]).size < 2:
        raise ClassifierError("training multiset covers fewer than 2 classes")
    return train


def _test_features(split: SampleSplit, pool: DatasetPool):
    return pool.features[np.asarray(split.test_indices, dtype=int)]


def _boosted_stump_result(train, split, pool, rounds, shrinkage):
    raw = boosted_stump_scores(pool.features[train], _onehot(pool.labels[train], pool.m),
                               _test_features(split, pool), rounds=rounds,
                               shrinkage=shrinkage)
    return check_score_matrix(_softmax(raw), pool.m)


def _logistic_result(weights, split, pool):
    if not np.isfinite(weights).all():
        raise ClassifierError("logistic weights are not finite; the gradient "
                              "descent diverged")
    return check_score_matrix(logistic_scores(weights, _test_features(split, pool)),
                              pool.m)


def run_external(command, split: SampleSplit, pool: DatasetPool, workdir=None):
    """File protocol: write train.csv/test.csv, run `command <workdir>`, read
    scores.csv (header score_1..score_m, one row per test row, rows sum to 1
    within 1e-6)."""
    import tempfile

    if command is None:
        raise ClassifierError("external classifier needs a command")
    command = [str(part) for part in (command if isinstance(command, (list, tuple))
                                      else [command])]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(workdir) if workdir is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        for name, rows in (("train", split.train_indices), ("test", split.test_indices)):
            write_pool_csv(DatasetPool(pool.features[rows], pool.labels[rows]),
                           base / f"{name}.csv")
        proc = subprocess.run(command + [str(base)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise ExternalRunnerError(
                f"external runner {command} exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
        scores_path = base / "scores.csv"
        if not scores_path.exists():
            raise ExternalRunnerError(f"external runner wrote no {scores_path}")
        scores = _read_scores_csv(scores_path, pool.m, len(split.test_indices))
    return scores


def _read_scores_csv(path, m, n_expected):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = [f"score_{j}" for j in range(1, m + 1)]
        if header != expected:
            raise ExternalRunnerError(f"{path}: expected header {expected}, got {header}")
        rows = [row for row in reader if row]
    if len(rows) != n_expected:
        raise ExternalRunnerError(f"{path}: expected {n_expected} rows, got {len(rows)}")
    try:
        scores = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ExternalRunnerError(f"{path}: non-numeric score: {exc}") from None
    if scores.shape != (n_expected, m):
        raise ExternalRunnerError(f"{path}: ragged score rows")
    sums = scores.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > EXTERNAL_ROW_TOL:
        raise ExternalRunnerError(f"{path}: score rows must sum to 1 within "
                                  f"{EXTERNAL_ROW_TOL}")
    if scores.min() < 0 or scores.max() > 1 + EXTERNAL_ROW_TOL:
        raise ExternalRunnerError(f"{path}: scores must lie in [0, 1]")
    return check_score_matrix(scores / sums[:, None], m)
