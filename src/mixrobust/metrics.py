"""Per-class one-vs-rest AUC and the two robustness responses.

AUC uses the tie-corrected Mann-Whitney rank form: the fraction of
(positive, negative) pairs in which the positive outranks the negative on
the class's score column, ties counting one half.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .design import PROPORTION_DECIMALS, TestScenario
from .fileio import atomic_write_text, iter_csv

SD_FLOOR = 1e-8


class MetricsError(ValueError):
    pass


def auc_ovr(scores, labels, class_j):
    """One-vs-rest AUC of class_j's score column via rank sums, O(n log n)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    return _auc(scores[:, class_j - 1], labels == class_j, class_j)


def aucs_ovr(scores, labels):
    """`auc_ovr` of every class 1..m of the (n, m) scores, in class order."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    return [_auc(scores[:, j - 1], labels == j, j) for j in range(1, scores.shape[1] + 1)]


def _auc(column, positive, class_j):
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricsError(f"class {class_j}: AUC needs at least one positive and "
                           f"one negative example (got {n_pos} / {n_neg})")
    rank_sum = _twice_rank_sum(column, positive) / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _twice_rank_sum(column, positive):
    """Twice the sum of the positive entries' midranks (ranks 1..n, tied values
    sharing the average of their positions), as an exact integer: a tie
    group at sorted positions lo..hi - 1 gives each entry lo + hi + 1. That
    does not depend on the order within a group, so any sort will do; only
    NaNs, which never compare equal, rank apart, in input order as a stable
    sort leaves them."""
    order = np.argsort(column)
    if np.isnan(column[order[-1]]):  # NaNs sort last
        order = np.argsort(column, kind="stable")
    sv = column[order]
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1], [True])))
    twice_ranks = np.empty(column.size, dtype=np.int64)
    twice_ranks[order] = np.repeat(starts[:-1] + starts[1:] + 1, np.diff(starts))
    return int(twice_ranks[positive].sum())


def mean_auc(aucs):
    """The mean of the per-class AUCs, as np.mean computes it: numpy's
    (pairwise) sum divided by the count."""
    aucs = np.asarray(aucs, dtype=float)
    if aucs.size < 1:
        raise MetricsError("mean AUC needs at least one class")
    return float(np.add.reduce(aucs, axis=None) / aucs.size)


def log_sd(aucs):
    """Natural log of the sample SD (m-1 denominator) of the per-class AUCs.

    The SD takes np.std(ddof=1)'s steps: the mean, the sum of squared
    deviations from it over m - 1, the square root. Dispersion below
    SD_FLOOR is floored rather than dropped, flagged degenerate, so
    downstream fits keep the balanced design.
    """
    aucs = np.asarray(aucs, dtype=float)
    if aucs.size < 2:
        raise MetricsError("log SD needs at least two classes")
    deviations = aucs - np.add.reduce(aucs, axis=None) / aucs.size
    sd = math.sqrt(np.add.reduce(deviations * deviations, axis=None) / (aucs.size - 1))
    if sd < SD_FLOOR:
        return math.log(SD_FLOOR), True
    return math.log(sd), False


@dataclass
class RunOutcome:
    """Per-class AUCs plus the derived responses for one run instance."""

    run_id: int
    replicate: int
    scenario: TestScenario
    covariates: tuple
    train_mixture: tuple
    aucs: tuple
    mean_auc: float
    log_sd: float
    degenerate_sd: bool

    @classmethod
    def from_aucs(cls, run_id, replicate, scenario, covariates, train_mixture, aucs):
        values = np.array(aucs, dtype=float)
        aucs = tuple(values.tolist())
        sd_log, degenerate = log_sd(values)
        return cls(run_id=run_id, replicate=replicate, scenario=scenario,
                   covariates=tuple(covariates), train_mixture=tuple(train_mixture),
                   aucs=aucs, mean_auc=mean_auc(values), log_sd=sd_log,
                   degenerate_sd=degenerate)


def outcomes_header(m, h):
    return (["run_id", "replicate", "scenario"]
            + [f"z{k}" for k in range(1, h + 1)]
            + [f"x{j}" for j in range(1, m + 1)]
            + [f"auc_{j}" for j in range(1, m + 1)]
            + ["mean_auc", "log_sd", "degenerate_flag"])


def outcomes_to_csv(outcomes, m, h) -> str:
    """The outcome rows by run_id, each filled into one line template."""
    line = ",".join(["%s"] * 3 + ["%g"] * h + [f"%.{PROPORTION_DECIMALS}f"] * m
                    + ["%.10g"] * (m + 2) + ["%d"]) + "\n"
    return ",".join(outcomes_header(m, h)) + "\n" + "".join([
        line % (out.run_id, out.replicate, out.scenario.value, *out.covariates,
                *out.train_mixture, *out.aucs, out.mean_auc, out.log_sd,
                int(out.degenerate_sd))
        for out in sorted(outcomes, key=lambda o: o.run_id)])


def write_outcomes_csv(outcomes, m, h, path):
    atomic_write_text(path, outcomes_to_csv(outcomes, m, h))


@dataclass
class OutcomeTable:
    """Outcome rows as columns: RunOutcome's fields, each an array over the
    rows (covariates, train_mixture and aucs one row of the array per run)."""

    run_id: np.ndarray
    replicate: np.ndarray
    scenario: np.ndarray  # TestScenario members, object dtype
    covariates: np.ndarray
    train_mixture: np.ndarray
    aucs: np.ndarray
    mean_auc: np.ndarray
    log_sd: np.ndarray
    degenerate_sd: np.ndarray

    def __len__(self):
        return len(self.run_id)

    @classmethod
    def from_outcomes(cls, outcomes):
        outcomes = list(outcomes)
        dtypes = {"scenario": object, "degenerate_sd": bool}
        return cls(**{f.name: np.array([getattr(out, f.name) for out in outcomes],
                                        dtype=dtypes.get(f.name))
                      for f in fields(cls)})

    def where(self, rows):
        """The table of the rows a boolean mask selects."""
        return OutcomeTable(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def outcomes(self):
        """The rows as RunOutcome values."""
        rows = zip(self.run_id.tolist(), self.replicate.tolist(), self.scenario.tolist(),
                   map(tuple, self.covariates.tolist()),
                   map(tuple, self.train_mixture.tolist()), map(tuple, self.aucs.tolist()),
                   self.mean_auc.tolist(), self.log_sd.tolist(),
                   self.degenerate_sd.tolist())
        return [RunOutcome(*row) for row in rows]


_parse_scenario = lru_cache(maxsize=16)(TestScenario.parse)


def stored_sum_bound(m):
    """How far from 1 the m printed proportions of a row can sum: rounding
    each part moves it by at most half a unit in the last decimal, and
    parsing and adding the parts by a few ulps more."""
    return m * (0.5 * 10.0 ** -PROPORTION_DECIMALS + 4 * np.finfo(float).eps)


def read_outcome_table(path) -> OutcomeTable:
    """Read outcome rows into columns; the training mixtures are renormalized
    to sum 1. A malformed file or row raises MetricsError naming the path, and
    the line for a row.

    One np.loadtxt pass reads a plain file. Any file that pass refuses is
    read again row by row, which accepts the same files, gives the same
    columns bit for bit and words every error.
    """
    try:
        return _read_outcome_array(path)
    except (ValueError, Warning):
        return _read_outcome_rows(path)


def _outcome_table(block, m, h, where, **columns):
    """The table of a float block (covariates, mixture, AUCs, mean_auc,
    log_sd per row) and the other columns, each mixture divided by its sum.
    A sum outside 1 +/- stored_sum_bound(m) raises MetricsError("<where(i)>:
    ...") for the first such row i."""
    mixtures = block[:, h:h + m]
    total = mixtures.sum(axis=1)
    bound = stored_sum_bound(m)
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= bound))
    if bad.size:
        i = int(bad[0])
        raise MetricsError(f"{where(i)}: stored proportions sum to {total[i]}, "
                           f"outside 1 +/- {bound:.2g}")
    return OutcomeTable(covariates=block[:, :h], train_mixture=mixtures / total[:, None],
                        aucs=block[:, h + m:h + 2 * m], mean_auc=block[:, -2],
                        log_sd=block[:, -1], **columns)


def _outcome_layout(header):
    m = sum(1 for name in header if name.startswith("auc_"))
    h = sum(1 for name in header if name.startswith("z"))
    return m, h


def _read_outcome_rows(path) -> OutcomeTable:
    """read_outcome_table one row at a time, through the csv module."""
    shape, ints, scenarios, numbers, lines = [], [], [], array("d"), []

    def layout(header):
        shape[:] = _outcome_layout(header)

        def parse(row):
            return (int(row[0]), int(row[1]), _parse_scenario(row[2]),
                    [float(v) for v in row[3:-1]], int(row[-1]))
        return outcomes_header(*shape), parse

    for line, (run_id, replicate, scenario, values, flag) in iter_csv(
            path, MetricsError, layout):
        lines.append(line)
        ints.append((run_id, replicate, flag))
        scenarios.append(scenario)
        numbers.extend(values)
    m, h = shape
    # a header-only file has int columns too, as a file with rows does
    ints = np.array(ints) if ints else np.empty((0, 3), dtype=int)
    block = np.frombuffer(numbers, dtype=float).reshape(len(lines), h + 2 * m + 2)
    return _outcome_table(
        block, m, h, lambda i: f"{path}:{lines[i]}: run {ints[i, 0]} mixture",
        run_id=ints[:, 0], replicate=ints[:, 1], scenario=np.array(scenarios, dtype=object),
        degenerate_sd=ints[:, 2] != 0)


# the bytes of a plain file: printable ASCII other than a quote, and line ends
_PLAIN_BYTES = bytes(range(0x20, 0x7f)).replace(b'"', b"") + b"\r\n"
# a scenario field this long may have been cut to fit
_SCENARIO_WIDTH = max(len(s.value) for s in TestScenario) + 1


def _is_plain(path):
    """Whether every byte of the file is a line end or printable ASCII other
    than a quote, and no field is over the csv module's size limit: its csv
    rows are then its non-blank lines split at commas.

    Chunks are half the limit long, so a longer field covers a whole chunk,
    one with no comma or line end.
    """
    size = max(csv.field_size_limit() // 2, 1)
    with open(path, "rb") as handle:
        while chunk := handle.read(size):
            if chunk.translate(None, _PLAIN_BYTES) or (
                    len(chunk) == size and not any(end in chunk for end in (b",", b"\r", b"\n"))):
                return False
    return True


def _read_outcome_array(path) -> OutcomeTable:
    """read_outcome_table in one np.loadtxt pass over a plain file. Raises
    ValueError, or a warning as an error, on a file it does not read as the
    row reader does."""
    if not _is_plain(path):
        raise ValueError(f"{path}: not a plain file")
    with open(path) as handle, warnings.catch_warnings():
        # a warning (no rows; a deprecated parse such as int("1.0") on older
        # numpy) makes the row reader decide
        warnings.simplefilter("error")
        header = handle.readline().rstrip("\n").split(",")
        m, h = _outcome_layout(header)
        if header != outcomes_header(m, h):
            raise ValueError(f"{path}: unexpected header")
        rows = np.loadtxt(handle, delimiter=",", comments=None, ndmin=1, dtype=[
            ("ids", int, (2,)), ("scenario", f"U{_SCENARIO_WIDTH}"),
            ("numbers", float, (h + 2 * m + 2,)), ("flag", int)])
    names, index = np.unique(rows["scenario"], return_inverse=True)
    names = names.tolist()
    if any(len(name) == _SCENARIO_WIDTH for name in names):
        raise ValueError(f"{path}: scenario name may be cut")
    scenarios = np.array([_parse_scenario(name) for name in names], dtype=object)
    ids = rows["ids"]
    # the float block contiguous and aligned, as the row reader lays it out;
    # a mixture sum off 1 is refused too, and the row reader names its line
    return _outcome_table(
        np.ascontiguousarray(rows["numbers"]), m, h, lambda i: path,
        run_id=ids[:, 0].copy(), replicate=ids[:, 1].copy(), scenario=scenarios[index],
        degenerate_sd=rows["flag"] != 0)


def read_outcomes_csv(path):
    """Read outcome rows back as RunOutcome values (mixtures renormalized).
    A malformed file or row raises MetricsError naming it."""
    return read_outcome_table(path).outcomes()
