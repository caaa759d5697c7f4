"""Labeled pools and the per-class train/test sampling rules.

Training sets are drawn with replacement inside each class; test sets are
drawn without replacement from whatever the training draw left untouched,
so no observation appears on both sides of a split.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_write_text


class SamplingError(ValueError):
    pass


@dataclass
class DatasetPool:
    """Feature table plus 1-based integer class labels and per-class indices."""

    features: np.ndarray
    labels: np.ndarray
    class_index: list = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise SamplingError("features must be a 2-d table")
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
    """
    total = int(total)
    if total <= 0:
        raise SamplingError(f"total must be positive, got {total}")
    mix = np.asarray(mixture, dtype=float)
    if mix.min() < 0:
        raise SamplingError("mixture entries must be nonnegative")
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(pool_header(pool.d))
    for label, row in zip(pool.labels, pool.features):
        writer.writerow([int(label)] + [f"{v:.10g}" for v in row])
    return buf.getvalue()


def write_pool_csv(pool: DatasetPool, path):
    atomic_write_text(path, pool_to_csv(pool))


def load_pool_csv(path) -> DatasetPool:
    """Read a `label,f1..fd` table; validates labels and rectangular width."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "label":
            raise SamplingError(f"{path}: expected header label,f1..fd")
        d = len(header) - 1
        if header != pool_header(d):
            raise SamplingError(f"{path}: unexpected pool header {header}")
        labels, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise SamplingError(f"{path}:{lineno}: expected {d + 1} fields, "
                                    f"got {len(row)}")
            try:
                label = int(row[0])
            except ValueError:
                raise SamplingError(f"{path}:{lineno}: label {row[0]!r} is not an "
                                    "integer") from None
            if label < 1:
                raise SamplingError(f"{path}:{lineno}: labels are 1-based")
            labels.append(label)
            rows.append([float(v) for v in row[1:]])
    if not rows:
        raise SamplingError(f"{path}: pool file has no observations")
    return DatasetPool(features=np.array(rows), labels=np.array(labels, dtype=int))
