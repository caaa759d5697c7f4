"""Mixture regression with covariates: model matrix, OLS fit, inference.

The response is modeled on the mixture main effects, their pairwise
products, covariate-by-mixture products, and covariate-by-covariate
products. There is no intercept (the mixture sums to one), no pure
quadratic terms (x_j^2 = x_j - sum_{j'!=j} x_j x_j'), and no covariate
main effects (z_k = sum_j z_k x_j); a covariate's overall contribution is
recovered afterwards as the sum-to-zero contrast (1/m) sum_j of its
mixture-interaction coefficients.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .design import TestScenario
from .fileio import atomic_write_text
from .studentt import two_sided_p

RANK_RTOL = 1e-10


class ModelError(ValueError):
    pass


def term_labels(m, h):
    """Column labels in model order: x_j, x_jx_j', x_jz_k (k-major), z_kz_k'."""
    labels = [f"x{j}" for j in range(1, m + 1)]
    labels += [f"x{j}x{jp}" for j in range(1, m + 1) for jp in range(j + 1, m + 1)]
    labels += [f"x{j}z{k}" for k in range(1, h + 1) for j in range(1, m + 1)]
    labels += [f"z{k}z{kp}" for k in range(1, h + 1) for kp in range(k + 1, h + 1)]
    return labels


def n_terms(m, h):
    return m + m * (m - 1) // 2 + h * m + h * (h - 1) // 2


def _term_factors(m, h):
    """Per model column, the two columns of [x | z | 1] whose product it is.

    Main effects pair x_j with the constant column; multiplying by 1.0 is
    exact, so every column is one elementwise product in term_labels order.
    """
    one = m + h
    pair_j, pair_jp = np.triu_indices(m, 1)
    cov_k, cov_kp = np.triu_indices(h, 1)
    left = np.concatenate([np.arange(m), pair_j, np.tile(np.arange(m), h), m + cov_k])
    right = np.concatenate([np.full(m, one), pair_jp, m + np.repeat(np.arange(h), m),
                            m + cov_kp])
    return left, right


def _factor_columns(mixtures, covariates):
    """[x | z | 1] as one (n, m + h + 1) array from raw 2-D inputs, with m and h."""
    mixtures = np.asarray(mixtures, dtype=float)
    covariates = np.asarray(covariates, dtype=float)
    if mixtures.ndim != 2 or covariates.ndim != 2:
        raise ModelError("mixtures and covariates must be 2-D, one row per observation")
    n = mixtures.shape[0]
    if covariates.shape[0] != n:
        raise ModelError(f"{n} mixture rows but {covariates.shape[0]} covariate rows")
    factors = np.column_stack([mixtures, covariates, np.ones(n)])
    return factors, mixtures.shape[1], covariates.shape[1]


def model_matrix(mixtures, covariates):
    """Model-matrix rows for raw (uncentered) mixtures (n, m) and covariates (n, h)."""
    factors, m, h = _factor_columns(mixtures, covariates)
    left, right = _term_factors(m, h)
    # row-major like a stack of rows: the fit's BLAS results depend on layout
    return np.take(factors, left, axis=1) * np.take(factors, right, axis=1)


def model_row(x, z):
    """One model-matrix row from raw (uncentered) inputs."""
    return model_matrix(np.reshape(x, (1, -1)), np.reshape(z, (1, -1)))[0]


@dataclass
class AnalysisDataset:
    """Responses with their mixtures and covariates for a single scenario."""

    y: np.ndarray
    mixtures: np.ndarray
    covariates: np.ndarray
    scenario: TestScenario
    response: str

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.mixtures = np.asarray(self.mixtures, dtype=float)
        self.covariates = np.asarray(self.covariates, dtype=float)
        n = self.y.size
        if self.mixtures.shape[0] != n or self.covariates.shape[0] != n:
            raise ModelError("responses, mixtures and covariates must align")
        finite = {"y": np.isfinite(self.y),
                  "mixtures": np.isfinite(self.mixtures).all(axis=1),
                  "covariates": np.isfinite(self.covariates).all(axis=1)}
        bad = ~np.logical_and.reduce(list(finite.values()))
        if bad.any():
            row = int(np.argmax(bad))
            fields = ", ".join(name for name, ok in finite.items() if not ok[row])
            raise ModelError(f"non-finite {fields} in row {row} of the {self.response} "
                             f"data (rows counted from 0)")
        sums = self.mixtures.sum(axis=1)
        if n and np.max(np.abs(sums - 1.0)) > 1e-6:
            raise ModelError("every mixture row must sum to 1 within 1e-6")

    @property
    def n(self):
        return self.y.size

    @property
    def m(self):
        return self.mixtures.shape[1]

    @property
    def h(self):
        return self.covariates.shape[1]


def dataset_from_outcomes(outcomes, response):
    """Collect one scenario's outcomes into an analysis dataset.

    Mixed-scenario input is refused: each scenario is analyzed separately.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ModelError("no outcomes to analyze")
    scenarios = {out.scenario for out in outcomes}
    if len(scenarios) != 1:
        raise ModelError(f"outcomes mix scenarios {sorted(s.value for s in scenarios)}; "
                         "analyze each scenario separately")
    if response not in ("mean_auc", "log_sd"):
        raise ModelError(f"unknown response {response!r}")
    y = np.array([getattr(out, response) for out in outcomes])
    mixtures = np.array([out.train_mixture for out in outcomes])
    covariates = np.array([out.covariates for out in outcomes])
    return AnalysisDataset(y=y, mixtures=mixtures, covariates=covariates,
                           scenario=outcomes[0].scenario, response=response)


@dataclass
class ModelMatrix:
    values: np.ndarray
    labels: list
    m: int
    h: int

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]


def build_design_matrix(data: AnalysisDataset) -> ModelMatrix:
    return ModelMatrix(values=model_matrix(data.mixtures, data.covariates),
                       labels=term_labels(data.m, data.h), m=data.m, h=data.h)


@dataclass
class MixtureModelFit:
    coefficients: np.ndarray
    covariance: np.ndarray
    sigma2: float
    df: int
    labels: list
    m: int
    h: int
    n: int
    rss: float

    def coefficient(self, label):
        return float(self.coefficients[self.labels.index(label)])


@dataclass
class TermInference:
    label: str
    estimate: float
    se: float
    t: float
    p: float

    @property
    def degenerate(self):
        return not math.isfinite(self.t)


@dataclass
class ImpliedEffect:
    covariate: int
    estimate: float
    se: float
    t: float
    p: float


def _dependent_columns(values, labels):
    # column-pivoted QR: pivots past the numerical rank name the dependent set
    _, r, pivots = linalg.qr(values, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > RANK_RTOL * diag[0])) if diag.size else 0
    return sorted(labels[i] for i in pivots[rank:])


def fit_ols(matrix: ModelMatrix, y, allow_saturated=False) -> MixtureModelFit:
    """Least squares through a QR factorization (never the normal equations).

    Needs n > p for inference; allow_saturated permits n == p, leaving the
    residual variance undefined. A rank-deficient matrix is rejected with
    the dependent column set named.
    """
    values = np.asarray(matrix.values, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = values.shape
    if y.shape != (n,):
        raise ModelError(f"response length {y.shape} does not match {n} rows")
    minimum = p if allow_saturated else p + 1
    if n < minimum:
        raise ModelError(f"need at least {minimum} observations for p={p} terms, got {n}")
    q, r = np.linalg.qr(values)
    singvals = np.linalg.svd(r, compute_uv=False)  # the singular values of X
    if singvals[-1] <= RANK_RTOL * singvals[0]:
        dependent = _dependent_columns(values, matrix.labels)
        raise ModelError("model matrix is rank deficient; dependent columns: "
                         + ", ".join(dependent))
    beta = linalg.solve_triangular(r, q.T @ y)
    residuals = y - values @ beta
    rss = float(residuals @ residuals)
    df = n - p
    r_inv = linalg.solve_triangular(r, np.eye(p))
    xtx_inv = r_inv @ r_inv.T
    if df > 0:
        sigma2 = rss / df
        covariance = sigma2 * xtx_inv
    else:
        sigma2 = float("nan")
        covariance = np.full((p, p), np.nan)
    return MixtureModelFit(coefficients=beta, covariance=covariance, sigma2=sigma2,
                           df=df, labels=list(matrix.labels), m=matrix.m, h=matrix.h,
                           n=n, rss=rss)


def term_inference(fit: MixtureModelFit):
    """Estimate, SE, t and two-sided p per model column."""
    if fit.df < 1:
        raise ModelError("inference needs at least 1 residual degree of freedom")
    rows = []
    for i, label in enumerate(fit.labels):
        est = float(fit.coefficients[i])
        se = float(np.sqrt(fit.covariance[i, i]))
        if se <= 0 or not math.isfinite(se):
            rows.append(TermInference(label, est, se, float("nan"), float("nan")))
            continue
        t = est / se
        rows.append(TermInference(label, est, se, t, float(two_sided_p(t, fit.df))))
    return rows


def implied_covariate_effect(fit: MixtureModelFit, k) -> ImpliedEffect:
    """Sum-to-zero summary of covariate k: the mean of its mixture-interaction
    coefficients, with the SE of that contrast."""
    wanted = [f"x{j}z{k}" for j in range(1, fit.m + 1)]
    missing = [lab for lab in wanted if lab not in fit.labels]
    if missing:
        raise ModelError(f"fit lacks interaction columns {missing} for covariate z{k}")
    contrast = np.zeros(len(fit.labels))
    for lab in wanted:
        contrast[fit.labels.index(lab)] = 1.0 / fit.m
    estimate = float(contrast @ fit.coefficients)
    variance = float(contrast @ fit.covariance @ contrast)
    se = float(np.sqrt(variance))
    if se <= 0 or not math.isfinite(se):
        return ImpliedEffect(k, estimate, se, float("nan"), float("nan"))
    t = estimate / se
    return ImpliedEffect(k, estimate, se, t, float(two_sided_p(t, fit.df)))


def predict_rows(fit: MixtureModelFit, mixtures, covariates):
    """Model predictions for rows of mixtures (n, m) and covariates (n, h).

    Column times coefficient is accumulated elementwise in term order, so a
    row gets the same bits whether it is evaluated alone or in a batch; the
    full model matrix is never materialized.
    """
    factors, m, h = _factor_columns(mixtures, covariates)
    if (m, h) != (fit.m, fit.h):
        raise ModelError(f"fit expects {fit.m} mixture parts and {fit.h} covariates, "
                         f"got {m} and {h}")
    sums = factors[:, :fit.m].sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-6))
    if bad.size:
        raise ModelError(f"mixture row {bad[0]} sums to {sums[bad[0]]}, not 1")
    out = np.zeros(factors.shape[0])
    for a, b, beta in zip(*_term_factors(fit.m, fit.h), fit.coefficients):
        out += factors[:, a] * factors[:, b] * beta
    return out


def predict(fit: MixtureModelFit, x, z):
    """Model prediction at mixture x and covariate levels z."""
    return float(predict_rows(fit, np.reshape(x, (1, -1)), np.reshape(z, (1, -1)))[0])


def fit_report(fit: MixtureModelFit, scenario, response):
    """JSON-ready summary: ordered terms plus the implied covariate effects."""
    terms = term_inference(fit)
    implied = [implied_covariate_effect(fit, k) for k in range(1, fit.h + 1)]

    def _num(v):
        return None if not math.isfinite(v) else v

    return {
        "scenario": scenario.value if isinstance(scenario, TestScenario) else str(scenario),
        "response": response,
        "n": fit.n,
        "df": fit.df,
        "sigma2": _num(fit.sigma2),
        "terms": [{"label": t.label, "estimate": t.estimate, "se": t.se,
                   "t": _num(t.t), "p": _num(t.p)} for t in terms],
        "implied_effects": [{"covariate": f"z{e.covariate}", "estimate": e.estimate,
                             "se": e.se, "t": _num(e.t), "p": _num(e.p)}
                            for e in implied],
    }


def write_fit_report(report, path):
    buf = io.StringIO()
    json.dump(report, buf, indent=2)
    buf.write("\n")
    atomic_write_text(path, buf.getvalue())
