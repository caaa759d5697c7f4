"""Labeled pools and the per-class train/test sampling rules.

Training sets are drawn with replacement inside each class; test sets are
drawn without replacement from whatever the training draw left untouched,
so no observation appears on both sides of a split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import MIXTURE_SUM_TOL
from .fileio import atomic_write_text, csv_text, read_csv


class SamplingError(ValueError):
    pass


@dataclass
class DatasetPool:
    """Feature table plus 1-based integer class labels and per-class indices."""

    features: np.ndarray
    labels: np.ndarray
    class_index: list = field(default_factory=list)
    _ranks: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise SamplingError("features must be a 2-d table")
        bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad.size:
            raise SamplingError(f"features must be finite; row {bad[0]} holds "
                                f"{self.features[bad[0]].tolist()}")
        if self.labels.shape != (self.features.shape[0],):
            raise SamplingError("labels must align with feature rows")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise SamplingError("labels must be integers")
        if self.labels.size and self.labels.min() < 1:
            raise SamplingError("labels are 1-based; found a label < 1")
        if not self.class_index:
            m = int(self.labels.max()) if self.labels.size else 0
            self.class_index = [np.flatnonzero(self.labels == j + 1) for j in range(m)]

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    @property
    def m(self):
        return len(self.class_index)

    @property
    def ranks(self):
        """The (d, n) `dense_ranks` of the features, computed on first use."""
        if self._ranks is None:
            self._ranks = dense_ranks(self.features)
        return self._ranks


def dense_ranks(features):
    """(d, n) dense ranks of the columns of the finite (n, d) `features`: a
    column's distinct values rank 0, 1, ... in ascending order, and equal
    values (-0.0 and 0.0 too) share a rank. So a stable argsort of a
    column's ranks is the stable argsort of its values, ties included. The
    ranks take the smallest unsigned dtype that holds them, because numpy's
    stable argsort is a radix sort only up to 16 bits."""
    features = np.asarray(features, dtype=float)
    columns = [np.unique(column, return_inverse=True)[1] for column in features.T]
    top = max((int(ranks.max()) for ranks in columns if ranks.size), default=0)
    return np.array(columns, dtype=np.min_scalar_type(top)).reshape(features.shape[::-1])


@dataclass(frozen=True)
class SamplingConfig:
    """Split sizing as fractions of the pool; training resampling allows overlap
    in draws, so the fractions need not sum below one."""

    train_frac: float = 0.10
    test_frac: float = 0.25

    def __post_init__(self):
        if not (0 < self.train_frac < np.inf and 0 < self.test_frac < np.inf):
            raise SamplingError("train_frac and test_frac must be finite and positive")


@dataclass
class SampleSplit:
    """Training index multiset (duplicates preserved) and unique test indices."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    train_counts: np.ndarray
    test_counts: np.ndarray


def class_counts(mixture, total):
    """Largest-remainder rounding of mixture * total into per-class counts.

    Counts sum to total exactly; rounding ties go to the lower class index.
    The mixture must sum to 1 within design.MIXTURE_SUM_TOL.
    """
    total = int(total)
    if total <= 0:
        raise SamplingError(f"total must be positive, got {total}")
    mix = np.asarray(mixture, dtype=float)
    if mix.min() < 0:
        raise SamplingError("mixture entries must be nonnegative")
    if not abs(mix.sum() - 1.0) <= MIXTURE_SUM_TOL:
        raise SamplingError(f"mixture {mix.tolist()} sums to {float(mix.sum())!r}, not 1")
    raw = mix * total
    base = np.floor(raw).astype(int)
    deficit = total - int(base.sum())
    if deficit:
        remainder = raw - base
        order = np.lexsort((np.arange(mix.size), -remainder))
        base[order[:deficit]] += 1
    return base


def _per_class(pool: DatasetPool, counts, draw) -> np.ndarray:
    """Concatenate draw(j, count, members) over the classes j with count > 0;
    members are class j's sorted pool rows, empty when the pool has none."""
    picks = []
    for j, count in enumerate(np.asarray(counts, dtype=int), start=1):
        if count:
            members = pool.class_index[j - 1] if j - 1 < pool.m else np.array([], dtype=int)
            picks.append(draw(j, count, members))
    return np.concatenate(picks) if picks else np.array([], dtype=int)


def compose_training(pool: DatasetPool, counts, rng) -> np.ndarray:
    """Per class, counts[j] uniform draws with replacement from that class."""
    def draw(j, count, members):
        if members.size == 0:
            raise SamplingError(f"class {j}: {count} draws requested but the pool "
                                "has no members of that class")
        return members[rng.integers(0, members.size, size=count)]
    return _per_class(pool, counts, draw)


def compose_test(pool: DatasetPool, train_indices, counts, rng) -> np.ndarray:
    """Per class, a without-replacement sample from members absent from training.

    "Absent" is judged on distinct indices, so a duplicated training draw
    blocks the observation from the test set exactly once.
    """
    free = np.ones(pool.n, dtype=bool)
    free[np.asarray(train_indices, dtype=int)] = False

    def draw(j, count, members):
        remaining = members[free[members]]
        if remaining.size < count:
            raise SamplingError(
                f"class {j}: {count} test points requested but only "
                f"{remaining.size} remain (shortfall {count - remaining.size})")
        return rng.choice(remaining, size=count, replace=False)
    return _per_class(pool, counts, draw)


def split_sizes(config: SamplingConfig, n_total):
    n_train = int(np.floor(config.train_frac * n_total + 0.5))
    n_test = int(np.floor(config.test_frac * n_total + 0.5))
    return n_train, n_test


def compose_split(pool: DatasetPool, train_mixture, test_mixture,
                  config: SamplingConfig, train_rng, test_rng) -> SampleSplit:
    """Resolve fraction-based sizes to per-class counts and draw both sides."""
    n_train, n_test = split_sizes(config, pool.n)
    train_counts = class_counts(train_mixture, n_train)
    test_counts = class_counts(test_mixture, n_test)
    train = compose_training(pool, train_counts, train_rng)
    test = compose_test(pool, train, test_counts, test_rng)
    return SampleSplit(train_indices=train, test_indices=test,
                       train_counts=train_counts, test_counts=test_counts)


def pool_header(d):
    return ["label"] + [f"f{i}" for i in range(1, d + 1)]


def pool_to_csv(pool: DatasetPool) -> str:
    return csv_text(pool_header(pool.d), ([int(label)] + [f"{v:.10g}" for v in row]
                                          for label, row in zip(pool.labels, pool.features)))


def write_pool_csv(pool: DatasetPool, path):
    atomic_write_text(path, pool_to_csv(pool))


def load_pool_csv(path) -> DatasetPool:
    """Read a `label,f1..fd` table; validates labels, finite features and
    rectangular width."""
    rows = read_csv(path, SamplingError,
                    lambda header: (pool_header(max(len(header) - 1, 1)), _pool_row))
    if not rows:
        raise SamplingError(f"{path}: pool file has no observations")
    labels, features = zip(*rows)
    return DatasetPool(features=np.array(features), labels=np.array(labels, dtype=int))


def _pool_row(row):
    label, features = int(row[0]), [float(v) for v in row[1:]]
    if label < 1:
        raise ValueError("labels are 1-based")
    if not all(map(math.isfinite, features)):
        raise ValueError(f"features must be finite, got {row[1:]}")
    return label, features
