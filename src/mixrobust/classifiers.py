"""Synthetic Gaussian pools and the two built-in reference classifiers.

The classifiers are deliberately small: a one-vs-rest logistic model fit by
full-batch gradient descent, and one-vs-rest boosted decision stumps. That
keeps two distinct inductive biases (linear vs. tree) for the algorithm
covariate. Real trainers attach through the external-runner protocol.
"""

from __future__ import annotations

import math
import subprocess
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from pathlib import Path

import numpy as np

from .design import as_float, check_fields, real_number, real_numbers, real_table, whole_number
from .fileio import iter_csv
from .sampling import DatasetPool, SampleSplit, dense_ranks, write_pool_csv
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
            return cls(name if isinstance(name, cls) else str(name).strip().lower())
        except ValueError:
            raise ClassifierError(f"unknown classifier kind {name!r}") from None


# what each hyper key accepts: (description, test on the value as a float)
HYPER_RANGES = {
    "epochs": ("an integer >= 0", lambda x: x >= 0 and x.is_integer()),
    "rounds": ("an integer >= 0", lambda x: x >= 0 and x.is_integer()),
    "step": ("finite and > 0", lambda x: 0 < x < math.inf),
    "shrinkage": ("finite and > 0", lambda x: 0 < x < math.inf),
    "l2": ("finite and >= 0", lambda x: 0 <= x < math.inf),
}


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
        number = as_float(value)
        if number is None or not accepts(number):
            raise ClassifierError(f"{kind.value} hyper {key!r} must be {rule}, "
                                  f"got {value!r}")
    return {**defaults, **hyper}


@dataclass(frozen=True)
class SyntheticDataConfig:
    """Gaussian blobs: class j sits at class_means[j] with isotropic noise
    scaled by noise_scale / separability_boost[j]. Without class_means the
    means are `default_class_means(m, d)`; a None or empty boost means none."""

    m: int
    d: int
    n_per_class: int
    class_means: tuple = None
    noise_scale: float = 1.0
    separability_boost: tuple = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ClassifierError, m=whole_number, d=whole_number,
                     n_per_class=whole_number)
        if self.m < 2 or self.d < 1 or self.n_per_class < 1:
            raise ClassifierError("m, d and n_per_class must be positive (m >= 2)")
        check_fields(self, ClassifierError,
                     class_means=lambda means, *rule: (
                         default_class_means(self.m, self.d) if means is None
                         else real_table(means, *rule)),
                     noise_scale=real_number,
                     separability_boost=lambda boost, *rule: (
                         boost if boost is None else real_numbers(boost, *rule) or None),
                     seed=whole_number)
        if not 0 < self.noise_scale < math.inf:
            raise ClassifierError("noise_scale must be finite and positive")
        if len(self.class_means) != self.m or any(len(row) != self.d for row in self.class_means):
            raise ClassifierError(f"class_means must be {self.m} vectors of length {self.d}")
        if not np.isfinite(self.class_means).all():
            raise ClassifierError("class_means must be finite")
        boost = (1.0,) * self.m if self.separability_boost is None else self.separability_boost
        if len(boost) != self.m or not all(0 < b < math.inf for b in boost):
            raise ClassifierError("separability_boost needs one finite positive entry per class")
        object.__setattr__(self, "separability_boost", boost)


def default_class_means(m, d, separation=3.0):
    """One-hot class means scaled by `separation`; exchangeable geometry."""
    separation = real_number(separation, "separation", ClassifierError)
    if d < m:
        raise ClassifierError(f"default means need d >= m (got d={d}, m={m})")
    means = np.zeros((m, d))
    means[np.arange(m), np.arange(m)] = separation
    return tuple(map(tuple, means.tolist()))


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


def check_score_matrix(scores, m):
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != m:
        raise ClassifierError(f"score matrix has shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ClassifierError("scores must be finite")
    if scores.size and (scores.min() < -SCORE_ROW_TOL or scores.max() > 1 + SCORE_ROW_TOL):
        raise ClassifierError("scores must lie in [0, 1]")
    if scores.size and np.max(np.abs(_row_sums(list(scores.T)) - 1.0)) > SCORE_ROW_TOL:
        raise ClassifierError(f"score rows must sum to 1 within {SCORE_ROW_TOL}")
    return scores


def _softmax(logits):
    """Row softmax of the (..., m) logits, worked on a contiguous copy of their
    class columns: the row max is a left fold of np.maximum, and each row's
    total adds its exps in sorted order, so relabeling classes permutes the
    scores exactly, not just to rounding. Returns a view of those columns."""
    columns = np.moveaxis(logits, -1, 0).copy()
    # logits spanning more than the float range shift to -inf, whose exp is 0
    with np.errstate(over="ignore", invalid="ignore"):
        columns -= reduce(np.maximum, columns)
        np.exp(columns, out=columns)
    columns /= _row_sums(_sorted_columns(columns))
    return np.moveaxis(columns, 0, -1)


def _sorted_columns(columns):
    """The columns sorted elementwise by an odd-even transposition network of
    np.minimum and np.maximum: entry i of the k-th result is the k-th
    smallest of the columns' entries i."""
    columns = list(columns)
    for start in range(len(columns)):
        for k in range(start % 2, len(columns) - 1, 2):
            low, high = columns[k], columns[k + 1]
            columns[k], columns[k + 1] = np.minimum(low, high), np.maximum(low, high)
    return columns


def _row_sums(columns):
    """The elementwise sum of the columns, added in the order numpy's pairwise
    summation adds one row of that many values: left to right below 8; up to
    128, eight running sums combined as a tree, then the rest left to right;
    above, the two halves' sums."""
    m = len(columns)
    if m < 8:
        return reduce(np.add, columns)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _row_sums(columns[:half]) + _row_sums(columns[half:])
    runs = columns[:8]
    for start in range(8, m - m % 8, 8):
        runs = [run + column for run, column in zip(runs, columns[start:start + 8])]
    a, b, c, d, e, f, g, h = runs
    return reduce(np.add, columns[m - m % 8:], ((a + b) + (c + d)) + ((e + f) + (g + h)))


def _onehot(labels, m):
    """(..., n, m) indicators of the 1-based (..., n) labels."""
    return (labels[..., None] == np.arange(1, m + 1)).astype(float)


def fit_logistic_ovr(features, labels, m, *, epochs=500, step=0.1, l2=1e-4):
    """One-vs-rest logistic weights via full-batch gradient descent.

    All class columns train jointly (the loss separates per class). Leading
    axes stack independent fits: (..., n, d) features and (..., n) labels
    give (..., d + 1, m) weights, each equal bit for bit to its own
    unstacked fit. That holds because every product is one gemm per fit on
    the same operands: the transposed features stay a `swapaxes` view, not
    a contiguous copy, which would be summed in another order.
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
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged fit fails by name
        for _ in range(epochs):
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
    return weights


def _presort(features, ranks):
    """Per-run facts of the (B, n, d) training features, shared by every round
    and class, from their (d, B, n) dense ranks: the stable sort order of each
    feature, shape (B, d, n); a 0/-inf mask of the n - 1 sorted positions, 0
    where a cut between distinct values falls; each cut's midpoint threshold
    (+inf elsewhere, so a constant feature's stump sends every row left); and
    the (B, d) constant flags. The ranks order like the values, ties
    included, and sort faster: by radix when they fit in 16 bits."""
    order = np.argsort(ranks, axis=-1, kind="stable").transpose(1, 0, 2)
    sv = np.take_along_axis(np.swapaxes(features, -1, -2), order, axis=-1)
    is_cut = sv[..., :-1] < sv[..., 1:]
    return (order, np.where(is_cut, 0.0, -np.inf),
            np.where(is_cut, 0.5 * (sv[..., :-1] + sv[..., 1:]), np.inf),
            ~is_cut.any(axis=-1))


def _one_block(*specs):
    """One array per (shape, dtype) spec, all views of one new block."""
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    # every view starts on an 8-byte boundary
    starts = np.cumsum([0] + [-(-size // 8) * 8 for size in sizes])
    block = np.empty(starts[-1], dtype=np.uint8)
    return [block[start:start + size].view(dtype).reshape(shape)
            for (shape, dtype), start, size in zip(specs, starts, sizes)]


class _StumpSearch:
    """The exact greedy split search over B runs' presorted features, for
    the m residual columns of each run, and the booster's buffers for those
    runs' n_rows train and test rows.

    Calling it with (B, m, n) residuals gives every run's and class's best
    stump on every feature, as four (B, m, d) tables (threshold, left_mean,
    right_mean, sse). One pass scores every cut: the left sums are a cumsum
    of the residuals gathered in each feature's sorted order. The tie rule
    downstream compares SSEs within 1e-15, so each must keep the bits of a
    1-D `sr @ sr` in that order: one `take` by a flat index gathers the
    residuals into contiguous (B, m, d, n) rows, whose batched matmul sums
    like `sr @ sr`; a strided gather or einsum does not.

    The presort and the index are built once, and every round works in
    place. All the buffers share one block, allocated once per call, because
    fresh memory costs page faults: glibc's malloc keeps freed heap up to
    twice the largest separately mapped block it has freed, so after the
    first call this block comes from the heap without faults, where one
    smaller block per buffer went back to the system after every call.
    """

    def __init__(self, features, ranks, m, n_rows):
        runs, n, d = features.shape
        order, self.mask, self.thresholds, self.constant = _presort(features, ranks)
        search, cuts, booster = (runs, m, d, n), (runs, m, d, n - 1), (runs, m, n_rows)
        (self.index, self.prefix, self.gain, self.right, self.total_sq, self.rows,
         self.targets, self.residuals, self.current, self.side, self.step) = _one_block(
            (search, np.intp), (search, float), (cuts, float), (cuts, float),
            ((runs, m, d, 1, 1), float), ((runs * d, n_rows), float),
            ((runs, m, n), float), ((runs, m, n), float), (booster, float),
            (booster, np.intp), (booster, float))
        # prefix[b, j, f, i] = residuals[b, j, order[b, f, i]], read from the
        # flat residuals
        np.add(np.arange(runs * m).reshape(runs, m, 1, 1) * n, order[:, None],
               out=self.index)
        self.left_count = np.arange(1.0, n)
        self.right_count = n - self.left_count
        self.cells = (np.arange(runs)[:, None, None], np.arange(m)[:, None],
                      np.arange(d))

    def __call__(self, residuals):
        n = residuals.shape[-1]
        prefix, gain, right = self.prefix, self.gain, self.right
        # mode="clip" skips the bounds check, which would buffer the output
        np.take(residuals, self.index, out=prefix, mode="clip")
        np.matmul(prefix[..., None, :], prefix[..., :, None], out=self.total_sq)
        np.cumsum(prefix, axis=-1, out=prefix)
        left_sum = prefix[..., :-1]
        np.square(left_sum, out=gain)
        gain /= self.left_count
        np.subtract(prefix[..., -1:], left_sum, out=right)
        np.square(right, out=right)
        right /= self.right_count
        gain += right
        gain += self.mask[:, None]
        best = gain.argmax(axis=-1)
        at = self.cells + (best,)
        cut = best + 1
        left = left_sum[at]
        # a constant feature's stable order is the identity, so this is the
        # mean of its sorted residuals
        mean = residuals.mean(axis=-1)[..., None]
        constant = self.constant[:, None]
        return (self.thresholds[self.cells[0], self.cells[2], best],
                np.where(constant, mean, left / cut),
                np.where(constant, mean, (prefix[..., -1] - left) / (n - cut)),
                self.total_sq[..., 0, 0] - np.where(constant, n * mean ** 2, gain[at]))


def _first_best(sse):
    """The feature index, per leading cell of the (..., d) SSEs, that a scan
    over ascending features keeps: it moves only to an SSE lower by more
    than 1e-15, so a feature and its duplicate keep the first-listed one."""
    best = sse[..., 0]
    feature = np.zeros(best.shape, dtype=int)
    for f in range(1, sse.shape[-1]):
        lower = sse[..., f] < best - 1e-15
        best = np.where(lower, sse[..., f], best)
        feature[lower] = f
    return feature


def boosted_stump_scores(features, targets, test_features, ranks=None, *, rounds=100,
                         shrinkage=0.1):
    """(..., n_test, m) raw scores of additive squared-error stumps, one model
    per column of the one-hot (..., n, m) `targets`.

    Leading axes stack independent runs of one training and one test size,
    each equal bit for bit to its own unstacked run. Features are sorted
    and cut once per call, from `ranks`, the (d, ..., n) dense ranks of the
    (..., n, d) training features (by default `dense_ranks` of them); each
    round scores every cut of every feature for all runs and classes in one
    pass and applies the chosen stumps to the train and test rows at once.
    """
    features = np.asarray(features, dtype=float)
    batch, (n, d) = features.shape[:-2], features.shape[-2:]
    features = features.reshape(-1, n, d)
    runs = features.shape[0]
    targets = np.asarray(targets, dtype=float)
    test_features = np.asarray(test_features, dtype=float)
    m, n_test = targets.shape[-1], test_features.shape[-2]
    targets = targets.reshape(runs, n, m)
    test_features = test_features.reshape(runs, n_test, d)
    ranks = (dense_ranks(features.reshape(-1, d)) if ranks is None
             else np.asarray(ranks)).reshape(d, runs, n)

    search = _StumpSearch(features, ranks, m, n + n_test)
    rows, goal, current = search.rows, search.targets, search.current
    residuals, side, step = search.residuals, search.side, search.step
    # every run's train then test rows, one row of n + n_test values per feature
    np.concatenate([np.swapaxes(features, -1, -2), np.swapaxes(test_features, -1, -2)],
                   axis=-1, out=rows.reshape(runs, d, n + n_test))
    np.copyto(goal, np.swapaxes(targets, -1, -2))
    current[...] = goal.mean(axis=-1)[..., None]
    run, cls = search.cells[0][..., 0], search.cells[1][..., 0]
    # step[b, j, i] = steps[b, j, side[b, j, i]]: side is the flat index of
    # the row's (right, left) step pair, plus 1 when the row goes left
    pair = 2 * np.arange(runs * m).reshape(runs, m, 1)
    for _ in range(rounds):
        np.subtract(goal, current[..., :n], out=residuals)
        threshold, left, right, sse = search(residuals)
        chosen = run, cls, _first_best(sse)
        np.take(rows, run * d + chosen[2], axis=0, out=step, mode="clip")
        np.less_equal(step, threshold[chosen][..., None], out=side)
        side += pair
        steps = np.stack([shrinkage * right[chosen], shrinkage * left[chosen]], axis=-1)
        np.take(steps, side, out=step, mode="clip")
        current += step
    scores = np.swapaxes(current[..., n:], -1, -2).copy()
    return scores.reshape(batch + scores.shape[1:])


# each kind's hyper keys: its trainer's keyword-only parameters, with their defaults
HYPER_DEFAULTS = {
    ClassifierKind.LOGISTIC: dict(fit_logistic_ovr.__kwdefaults__),
    ClassifierKind.BOOSTED_STUMPS: dict(boosted_stump_scores.__kwdefaults__),
    ClassifierKind.EXTERNAL: {},
}


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind, its hyper overrides as sorted (key, float) pairs, an
    external command as a tuple of strings, and its trainer's `settings`."""

    kind: ClassifierKind
    hyper: tuple = ()
    command: tuple = None
    settings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, hyper, command = ClassifierKind.parse(self.kind), dict(self.hyper), self.command
        resolve_hyper(kind, hyper)
        if kind is ClassifierKind.EXTERNAL and not isinstance(command or None, (list, tuple)):
            raise ClassifierError("external classifier needs a command list")
        if kind is not ClassifierKind.EXTERNAL and command:
            raise ClassifierError("only external classifiers take a command")
        hyper = {str(k): float(v) for k, v in hyper.items()}
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "hyper", tuple(sorted(hyper.items())))
        object.__setattr__(self, "command", tuple(map(str, command)) if command else None)
        # each keyword argument of the trainer, of its default's type
        object.__setattr__(self, "settings", {key: type(default)(hyper.get(key, default))
                                              for key, default in HYPER_DEFAULTS[kind].items()})

    @property
    def hyper_dict(self):
        return dict(self.hyper)


def train_and_score(kind, split: SampleSplit, pool: DatasetPool, hyper=None, command=None):
    """Fit the requested classifier on the split and score the test rows.

    Returns an (n_test, m) row-stochastic score matrix. EXTERNAL delegates
    to `command` via the file protocol. This is the one-split call of
    `train_and_score_batch` on the ClassifierSpec of the arguments, and
    raises what that returns as the error.
    """
    [result] = train_and_score_batch(ClassifierSpec(kind, hyper or (), command), [split], pool)
    if isinstance(result, Exception):
        raise result
    return result


def train_and_score_batch(spec: ClassifierSpec, splits, pool: DatasetPool):
    """`train_and_score` for every split of one pool. Returns, per split, its
    score matrix or the ClassifierError or ExternalRunnerError it raised, so
    one split's failure leaves the others' scores as they would be alone.

    The splits that draw the same numbers of training and test rows train
    together: logistic ones as one stacked gradient descent, boosted stumps
    as one stacked booster, and each run's scores are the checked softmax of
    its raw scores. External runners go one split at a time.
    """
    if spec.kind is ClassifierKind.EXTERNAL:
        return [_caught(run_external, spec.command, split, pool) for split in splits]

    results = [_caught(_training_rows, split, pool) for split in splits]
    stacks = {}
    for i, rows in enumerate(results):
        if not isinstance(rows, Exception):
            stacks.setdefault((rows.size, len(splits[i].test_indices)), []).append(i)
    for stack in stacks.values():
        train = np.stack([results[i] for i in stack])
        test = pool.features[np.array([splits[i].test_indices for i in stack], dtype=int)]
        diverged = np.zeros(len(stack), dtype=bool)
        if spec.kind is ClassifierKind.BOOSTED_STUMPS:
            raw = boosted_stump_scores(pool.features[train], _onehot(pool.labels[train], pool.m),
                                       test, ranks=pool.ranks[:, train], **spec.settings)
        else:
            weights = fit_logistic_ovr(pool.features[train], pool.labels[train], pool.m,
                                       **spec.settings)
            diverged = ~np.isfinite(weights).all(axis=(-2, -1))
            weights[diverged] = 0.0  # those runs fail by name below
            # one gemm per run, with the bits of that run's unstacked product
            raw = np.concatenate([test, np.ones(test.shape[:-1] + (1,))], axis=-1) @ weights
        for i, run_raw, run_diverged in zip(stack, raw, diverged):
            results[i] = (ClassifierError("logistic weights are not finite; the gradient "
                                          "descent diverged") if run_diverged
                          else _caught(check_score_matrix, _softmax(run_raw), pool.m))
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


def run_external(command, split: SampleSplit, pool: DatasetPool):
    """File protocol: in a fresh temporary directory, write train.csv and
    test.csv, run `command <directory>`, read scores.csv (header
    score_1..score_m, one row per test row, rows sum to 1 within 1e-6)."""
    command = list(command)  # a ClassifierSpec's tuple; the messages print a list
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, rows in (("train", split.train_indices), ("test", split.test_indices)):
            write_pool_csv(DatasetPool(pool.features[rows], pool.labels[rows]),
                           base / f"{name}.csv")
        try:
            proc = subprocess.run(command + [str(base)], capture_output=True, text=True)
        except OSError as exc:  # no such program, or not executable
            raise ExternalRunnerError(f"external runner {command} could not start: "
                                      f"{exc.strerror or exc}") from None
        if proc.returncode != 0:
            raise ExternalRunnerError(
                f"external runner {command} exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
        scores_path = base / "scores.csv"
        if not scores_path.exists():
            raise ExternalRunnerError(f"external runner wrote no {scores_path}")
        return _read_scores_csv(scores_path, pool.m, len(split.test_indices))


def _read_scores_csv(path, m, n_expected):
    header = [f"score_{j}" for j in range(1, m + 1)]
    numbered = list(iter_csv(path, ExternalRunnerError, lambda _: (header, _score_row)))
    if len(numbered) != n_expected:
        raise ExternalRunnerError(f"{path}: expected {n_expected} rows, got {len(numbered)}")
    scores = np.array([row for _, row in numbered], dtype=float).reshape(n_expected, m)
    sums = scores.sum(axis=1)
    # the first failing row of the first rule broken names its line
    for bad, reason in ((np.abs(sums - 1.0) > EXTERNAL_ROW_TOL,
                         f"score rows must sum to 1 within {EXTERNAL_ROW_TOL}"),
                        (((scores < 0) | (scores > 1 + EXTERNAL_ROW_TOL)).any(axis=1),
                         "scores must lie in [0, 1]")):
        if bad.any():
            raise ExternalRunnerError(f"{path}:{numbered[bad.argmax()][0]}: {reason}")
    return check_score_matrix(scores / sums[:, None], m)


def _score_row(row):
    scores = [float(v) for v in row]
    if not all(map(math.isfinite, scores)):
        raise ValueError(f"scores must be finite, got {row}")
    return scores
