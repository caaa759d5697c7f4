"""Synthetic Gaussian pools and the two built-in reference classifiers.

The classifiers are deliberately small: a one-vs-rest logistic model fit by
full-batch gradient descent, and one-vs-rest boosted decision stumps. That
keeps two distinct inductive biases (linear vs. tree) for the algorithm
covariate. Real trainers attach through the external-runner protocol.
"""

from __future__ import annotations

import csv
import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .sampling import DatasetPool, SampleSplit, pool_header
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


def resolve_hyper(kind: ClassifierKind, hyper=None):
    """The kind's defaults overridden by `hyper`; a key the kind does not
    take raises ClassifierError, so a misspelling cannot fall back silently."""
    defaults = HYPER_DEFAULTS[kind]
    hyper = dict(hyper or {})
    unknown = [key for key in hyper if key not in defaults]
    if unknown:
        raise ClassifierError(
            f"{kind.value} takes no hyper key {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(defaults) or 'none'}")
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
        if self.noise_scale <= 0:
            raise ClassifierError("noise_scale must be positive")
        means = tuple(tuple(float(v) for v in row) for row in self.class_means)
        if len(means) != self.m or any(len(row) != self.d for row in means):
            raise ClassifierError(f"class_means must be {self.m} vectors of length {self.d}")
        boost = self.separability_boost
        boost = tuple(1.0 for _ in range(self.m)) if boost is None else tuple(float(b) for b in boost)
        if len(boost) != self.m or any(b <= 0 for b in boost):
            raise ClassifierError("separability_boost needs one positive entry per class")
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
    out = np.zeros((labels.size, m))
    out[np.arange(labels.size), labels - 1] = 1.0
    return out


def logistic_loss(weights, features_b, targets, l2):
    z = features_b @ weights
    # log(1 + exp(-|z|)) form keeps the loss finite for large margins
    per = np.logaddexp(0.0, z) - targets * z
    return per.mean() + 0.5 * l2 * np.sum(weights[:-1] ** 2)


def fit_logistic_ovr(features, labels, m, epochs=500, step=0.1, l2=1e-4,
                     loss_every=0):
    """One-vs-rest logistic weights via full-batch gradient descent.

    All class columns train jointly (the loss separates per class). Returns
    (weights, losses); losses is populated every `loss_every` epochs when
    that is nonzero.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    features_b = np.hstack([features, np.ones((n, 1))])
    targets = _onehot(np.asarray(labels, dtype=int), m)
    weights = np.zeros((features_b.shape[1], m))
    losses = []
    for epoch in range(epochs):
        if loss_every and epoch % loss_every == 0:
            losses.append(logistic_loss(weights, features_b, targets, l2))
        probs = 1.0 / (1.0 + np.exp(-(features_b @ weights)))
        grad = features_b.T @ (probs - targets) / n
        grad[:-1] += l2 * weights[:-1]
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
    None when the feature is constant.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    return _best_sorted_split(sv, _cuts(sv), np.asarray(residuals, dtype=float)[order])


def _cuts(sv):
    """Left group sizes of the candidate cuts between distinct ascending values."""
    return np.flatnonzero(sv[:-1] < sv[1:]) + 1


def _best_sorted_split(sv, k, sr):
    """`best_stump_split` on ascending values, their `_cuts` and the residuals."""
    n = sv.size
    total_sq = float(sr @ sr)
    if k.size == 0:
        return None, float(sr.mean()), float(sr.mean()), total_sq - n * sr.mean() ** 2
    prefix = np.cumsum(sr)
    total = prefix[-1]
    left_sum = prefix[k - 1]
    right_sum = total - left_sum
    gain = left_sum ** 2 / k + right_sum ** 2 / (n - k)
    best = int(np.argmax(gain))
    cut = k[best]
    left_mean = left_sum[best] / cut
    right_mean = right_sum[best] / (n - cut)
    threshold = 0.5 * (sv[cut - 1] + sv[cut])
    return float(threshold), float(left_mean), float(right_mean), total_sq - float(gain[best])


def boosted_stump_scores(features, targets, test_features, rounds=100, shrinkage=0.1):
    """(n_test, m) raw scores of additive squared-error stumps, one model per
    column of the one-hot `targets`. Each feature is sorted and cut once for
    every round and class; each stump is applied once, to train and test rows."""
    n, d = features.shape
    order = np.argsort(features, axis=0, kind="mergesort")
    sorted_values = np.take_along_axis(features, order, axis=0)
    cuts = [_cuts(sorted_values[:, feature]) for feature in range(d)]
    rows = np.vstack([features, test_features])
    raw = np.empty((rows.shape[0] - n, targets.shape[1]))
    for j in range(targets.shape[1]):
        target = targets[:, j]
        current = np.full(rows.shape[0], float(target.mean()))
        for _ in range(rounds):
            residual = target - current[:n]
            best = None
            for feature in range(d):
                # SSEs tie within 1e-15 below, so each must keep best_stump_split's bits
                threshold, left, right, sse = _best_sorted_split(
                    sorted_values[:, feature], cuts[feature], residual[order[:, feature]])
                if best is None or sse < best[4] - 1e-15:
                    best = (feature, threshold, left, right, sse)
            feature, threshold, left, right, _ = best
            step = left if threshold is None else np.where(
                rows[:, feature] <= threshold, left, right)
            current = current + shrinkage * step
        raw[:, j] = current[n:]
    return raw


def train_and_score(kind, split: SampleSplit, pool: DatasetPool, hyper=None,
                    command=None, workdir=None):
    """Fit the requested classifier on the split and score the test rows.

    Returns an (n_test, m) row-stochastic score matrix. EXTERNAL delegates
    to `command` via the file protocol; `workdir` defaults to a fresh
    temporary directory.
    """
    kind = kind if isinstance(kind, ClassifierKind) else ClassifierKind.parse(kind)
    settings = resolve_hyper(kind, hyper)
    if kind is ClassifierKind.EXTERNAL:
        if command is None:
            raise ClassifierError("external classifier needs a command")
        return run_external(command, split, pool, workdir=workdir)

    train = np.asarray(split.train_indices, dtype=int)
    features, labels = pool.features[train], pool.labels[train]
    if np.unique(labels).size < 2:
        raise ClassifierError("training multiset covers fewer than 2 classes")
    test_features = pool.features[np.asarray(split.test_indices, dtype=int)]
    if kind is ClassifierKind.LOGISTIC:
        weights, _ = fit_logistic_ovr(features, labels, pool.m,
                                      epochs=int(settings["epochs"]),
                                      step=float(settings["step"]),
                                      l2=float(settings["l2"]))
        scores = logistic_scores(weights, test_features)
    elif kind is ClassifierKind.BOOSTED_STUMPS:
        scores = _softmax(boosted_stump_scores(features, _onehot(labels, pool.m),
                                               test_features,
                                               rounds=int(settings["rounds"]),
                                               shrinkage=float(settings["shrinkage"])))
    else:  # pragma: no cover
        raise ClassifierError(f"unhandled classifier kind {kind}")
    return check_score_matrix(scores, pool.m)


def _write_split_csv(path, pool: DatasetPool, indices):
    rows = [",".join([str(int(pool.labels[i]))]
                     + [f"{v:.10g}" for v in pool.features[i]])
            for i in np.asarray(indices, dtype=int)]
    header = ",".join(pool_header(pool.d))
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n")


def run_external(command, split: SampleSplit, pool: DatasetPool, workdir=None):
    """File protocol: write train.csv/test.csv, run `command <workdir>`, read
    scores.csv (header score_1..score_m, one row per test row, rows sum to 1
    within 1e-6)."""
    import tempfile

    command = [str(part) for part in (command if isinstance(command, (list, tuple))
                                      else [command])]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(workdir) if workdir is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        _write_split_csv(base / "train.csv", pool, split.train_indices)
        _write_split_csv(base / "test.csv", pool, split.test_indices)
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
