"""Per-class one-vs-rest AUC and the two robustness responses.

AUC uses the tie-corrected Mann-Whitney rank form: the fraction of
(positive, negative) pairs in which the positive outranks the negative on
the class's score column, ties counting one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import TestScenario, renormalize
from .fileio import atomic_write_text, csv_text, read_csv

SD_FLOOR = 1e-8


class MetricsError(ValueError):
    pass


def midranks(values):
    """Ranks 1..n with tied values sharing the average of their positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    boundaries = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1], True])
    sizes = np.diff(boundaries)
    group_mid = (boundaries[:-1] + boundaries[1:] - 1) / 2.0 + 1.0
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(group_mid, sizes)
    return ranks


def auc_ovr(scores, labels, class_j):
    """One-vs-rest AUC of class_j's score column via rank sums, O(n log n)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    column = scores[:, class_j - 1]
    positive = labels == class_j
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricsError(f"class {class_j}: AUC needs at least one positive and "
                           f"one negative example (got {n_pos} / {n_neg})")
    ranks = midranks(column)
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mean_auc(aucs):
    aucs = np.asarray(aucs, dtype=float)
    if aucs.size < 1:
        raise MetricsError("mean AUC needs at least one class")
    return float(aucs.mean())


def log_sd(aucs):
    """Natural log of the sample SD (m-1 denominator) of the per-class AUCs.

    Dispersion below SD_FLOOR is floored rather than dropped, flagged
    degenerate, so downstream fits keep the balanced design.
    """
    aucs = np.asarray(aucs, dtype=float)
    if aucs.size < 2:
        raise MetricsError("log SD needs at least two classes")
    sd = float(np.std(aucs, ddof=1))
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
        aucs = tuple(float(a) for a in aucs)
        sd_log, degenerate = log_sd(aucs)
        return cls(run_id=run_id, replicate=replicate, scenario=scenario,
                   covariates=tuple(covariates), train_mixture=tuple(train_mixture),
                   aucs=aucs, mean_auc=mean_auc(aucs), log_sd=sd_log,
                   degenerate_sd=degenerate)


def outcomes_header(m, h):
    return (["run_id", "replicate", "scenario"]
            + [f"z{k}" for k in range(1, h + 1)]
            + [f"x{j}" for j in range(1, m + 1)]
            + [f"auc_{j}" for j in range(1, m + 1)]
            + ["mean_auc", "log_sd", "degenerate_flag"])


def outcomes_to_csv(outcomes, m, h) -> str:
    return csv_text(outcomes_header(m, h), (
        [out.run_id, out.replicate, out.scenario.value]
        + [f"{v:g}" for v in out.covariates]
        + [f"{v:.6f}" for v in out.train_mixture]
        + [f"{v:.10g}" for v in out.aucs]
        + [f"{out.mean_auc:.10g}", f"{out.log_sd:.10g}", int(out.degenerate_sd)]
        for out in sorted(outcomes, key=lambda o: o.run_id)))


def write_outcomes_csv(outcomes, m, h, path):
    atomic_write_text(path, outcomes_to_csv(outcomes, m, h))


def read_outcomes_csv(path):
    """Read outcome rows back as RunOutcome values (mixtures renormalized).
    A malformed file or row raises MetricsError naming it."""
    return read_csv(path, MetricsError, _outcomes_layout)


def _outcomes_layout(header):
    m = sum(1 for name in header if name.startswith("auc_"))
    h = sum(1 for name in header if name.startswith("z"))

    def parse(row):
        return RunOutcome(
            run_id=int(row[0]), replicate=int(row[1]), scenario=TestScenario.parse(row[2]),
            covariates=tuple(float(v) for v in row[3:3 + h]),
            train_mixture=renormalize(row[3 + h:3 + h + m], f"run {row[0]} mixture"),
            aucs=tuple(float(v) for v in row[3 + h + m:3 + h + 2 * m]),
            mean_auc=float(row[3 + h + 2 * m]), log_sd=float(row[4 + h + 2 * m]),
            degenerate_sd=bool(int(row[5 + h + 2 * m])))
    return outcomes_header(m, h), parse
