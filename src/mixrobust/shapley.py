"""Shapley attribution for the fitted linear model.

Each model column (products included) is one feature. With background
means for absent features, the Shapley value of a linear model collapses
to coefficient times the column's deviation from its mean; the subset-
enumeration oracle computes the same quantity from the definition so the
closed form can be tested rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write_text, write_json
from .mixmodel import MixtureModelFit, ModelMatrix

MAX_ORACLE_FEATURES = 20


class ShapError(ValueError):
    pass


def shap_per_observation(fit: MixtureModelFit, matrix: ModelMatrix):
    """Per-observation, per-column values beta_c * (M_ic - mean_i M_ic)."""
    if list(fit.labels) != list(matrix.labels):
        raise ShapError("fit and matrix disagree on column labels")
    values = np.asarray(matrix.values, dtype=float)
    centered = values - values.mean(axis=0, keepdims=True)
    return centered * fit.coefficients[None, :]


def shap_importance(phi):
    """Mean absolute per-observation value, one importance per column."""
    phi = np.asarray(phi, dtype=float)
    if phi.size == 0:
        raise ShapError("empty attribution matrix")
    return np.abs(phi).mean(axis=0)


def exact_shapley_oracle(betas, row, means):
    """Subset-enumeration Shapley values for the linear value function.

    v(M) scores a coalition by the model output with present features at
    their observed values and absent features at the background means;
    phi_k weights the marginal contributions by 1 / (p * C(p-1, |M|)).
    Rejects p > 20 (enumeration is 2^p).
    """
    betas = np.asarray(betas, dtype=float)
    row = np.asarray(row, dtype=float)
    means = np.asarray(means, dtype=float)
    p = betas.size
    if row.size != p or means.size != p:
        raise ShapError("betas, row and means must share length")
    if p > MAX_ORACLE_FEATURES:
        raise ShapError(f"subset enumeration capped at p <= {MAX_ORACLE_FEATURES}, got {p}")
    present = betas * row
    absent = betas * means
    phi = np.zeros(p)
    n_subsets = 1 << (p - 1)
    weights = np.array([1.0 / (p * math.comb(p - 1, q)) for q in range(p)])
    for k in range(p):
        others = np.array([j for j in range(p) if j != k], dtype=int)
        masks = (np.arange(n_subsets)[:, None] >> np.arange(p - 1)) & 1
        member = masks.astype(bool)
        value_without = member @ present[others] + (~member) @ absent[others] + absent[k]
        value_with = member @ present[others] + (~member) @ absent[others] + present[k]
        sizes = member.sum(axis=1)
        phi[k] = float(np.sum(weights[sizes] * (value_with - value_without)))
    return phi


@dataclass
class ShapReport:
    labels: list
    phi: np.ndarray
    importance: np.ndarray


def shap_report(fit: MixtureModelFit, matrix: ModelMatrix) -> ShapReport:
    phi = shap_per_observation(fit, matrix)
    return ShapReport(labels=list(fit.labels), phi=phi, importance=shap_importance(phi))


def write_shap_json(report: ShapReport, path, scenario=None, response=None):
    """Importances sorted descending, one object per column."""
    order = np.argsort(-report.importance, kind="mergesort")
    payload = {
        "scenario": scenario,
        "response": response,
        "importances": [{"label": report.labels[i],
                         "importance": float(report.importance[i])}
                        for i in order],
    }
    write_json(path, payload)


def _distinct_rows(values):
    """(first, index) for a 2-D float array: the first position of each
    distinct row, and each row's place among them. Rows are told apart by
    their bits, so -0.0 and 0.0 differ, as they do in print."""
    values = np.ascontiguousarray(values, dtype=float)
    keys = values.view(np.dtype((np.void, values.itemsize * values.shape[1])))
    _, first, index = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return first, index


def write_phi_csv(report: ShapReport, path):
    # replicates share a model row, so each distinct phi row is printed once
    row = ",".join(["%.10g"] * len(report.labels)) + "\n"
    first, index = _distinct_rows(report.phi)
    lines = [row % tuple(values) for values in report.phi[first].tolist()]
    atomic_write_text(path, ",".join(report.labels) + "\n"
                      + "".join([lines[i] for i in index.tolist()]))
