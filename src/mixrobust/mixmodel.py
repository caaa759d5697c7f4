"""Mixture regression with covariates: model matrix, OLS fit, inference.

The response is modeled on the mixture main effects, their pairwise
products, covariate-by-mixture products, and covariate-by-covariate
products. There is no intercept (the mixture sums to one), no pure
quadratic terms (x_j^2 = x_j - sum_{j'!=j} x_j x_j'), and no covariate
main effects (z_k = sum_j z_k x_j); a covariate's overall contribution is
recovered afterwards as the sum-to-zero contrast (1/m) sum_j of its
mixture-interaction coefficients.

scipy is imported inside the functions that call it, so the stages that never
fit (design, simulate, run, report) start without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import TestScenario
from .fileio import write_json
from .metrics import OutcomeTable

RANK_RTOL = 1e-10
RESPONSES = ("mean_auc", "log_sd")  # the outcome columns a model can fit
# the mixture rows fitted or predicted at must each sum to 1 within this
MIXTURE_ROW_TOL = 1e-6


class ModelError(ValueError):
    pass


def load_scipy():
    """Import the scipy modules the fits call. A stage that pins OpenBLAS
    calls this first, so that scipy's OpenBLAS is mapped when it is pinned."""
    import scipy.linalg
    import scipy.special


def term_labels(m, h):
    """Column labels in model order: x_j, x_jx_j', x_jz_k (k-major), z_kz_k'."""
    names = ([f"x{j}" for j in range(1, m + 1)] + [f"z{k}" for k in range(1, h + 1)]
             + [""])  # the constant column
    return [names[a] + names[b] for a, b in zip(*_term_factors(m, h))]


def n_terms(m, h):
    return m + m * (m - 1) // 2 + h * m + h * (h - 1) // 2


def _term_factors(m, h):
    """Per model column, the two columns of [x | z | 1] whose product it is;
    this order is the model's column order, and term_labels names it.

    Main effects pair x_j with the constant column; multiplying by 1.0 is
    exact, so every column is one elementwise product.
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


def _check_mixture_rows(mixtures):
    """Raise ModelError naming the first row of `mixtures` whose sum is not
    within MIXTURE_ROW_TOL of 1 (a NaN sum included)."""
    sums = mixtures.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= MIXTURE_ROW_TOL))
    if bad.size:
        raise ModelError(f"mixture row {bad[0]} sums to {sums[bad[0]]}, not 1 "
                         f"within {MIXTURE_ROW_TOL:g}")


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
        _check_mixture_rows(self.mixtures)

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
    return dataset_from_table(OutcomeTable.from_outcomes(outcomes), response)


def dataset_from_table(table: OutcomeTable, response):
    """dataset_from_outcomes for the rows of an outcome table."""
    if not len(table):
        raise ModelError("no outcomes to analyze")
    scenarios = set(table.scenario.tolist())
    if len(scenarios) != 1:
        raise ModelError(f"outcomes mix scenarios {sorted(s.value for s in scenarios)}; "
                         "analyze each scenario separately")
    if response not in RESPONSES:
        raise ModelError(f"unknown response {response!r}")
    return AnalysisDataset(y=getattr(table, response), mixtures=table.train_mixture,
                           covariates=table.covariates, scenario=table.scenario[0],
                           response=response)


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
    from scipy import linalg

    # column-pivoted QR: pivots past the numerical rank name the dependent set
    _, r, pivots = linalg.qr(values, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > RANK_RTOL * diag[0])) if diag.size else 0
    return sorted(labels[i] for i in pivots[rank:])


def fit_ols(matrix: ModelMatrix, y) -> MixtureModelFit:
    """Least squares through a QR factorization (never the normal equations).

    Needs n > p, so inference has at least one residual degree of freedom.
    A rank-deficient matrix is rejected with the dependent column set named.
    """
    from scipy import linalg

    values = np.asarray(matrix.values, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = values.shape
    if y.shape != (n,):
        raise ModelError(f"response length {y.shape} does not match {n} rows")
    if n <= p:
        raise ModelError(f"need at least {p + 1} observations for p={p} terms, got {n}")
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
    sigma2 = rss / df
    return MixtureModelFit(coefficients=beta, covariance=sigma2 * (r_inv @ r_inv.T),
                           sigma2=sigma2, df=df, labels=list(matrix.labels), m=matrix.m,
                           h=matrix.h, n=n, rss=rss)


def term_inference(fit: MixtureModelFit):
    """Estimate, SE, t and two-sided p per model column."""
    if fit.df < 1:
        raise ModelError("inference needs at least 1 residual degree of freedom")
    rows = []
    for i, label in enumerate(fit.labels):
        est = float(fit.coefficients[i])
        se = float(np.sqrt(fit.covariance[i, i]))
        rows.append(TermInference(label, est, se, *_t_and_p(est, se, fit.df)))
    return rows


def _t_and_p(estimate, se, df):
    """t and two-sided p of an estimate; both NaN unless the SE is finite and > 0."""
    if se <= 0 or not math.isfinite(se):
        return float("nan"), float("nan")
    t = estimate / se
    return t, two_sided_p(t, df)


def two_sided_p(t, df):
    """P(|T| >= |t|) for Student's t with df >= 1 degrees of freedom: the
    regularized incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2), so 1
    at t = 0."""
    from scipy import special

    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    df, t = float(df), float(t)
    return float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))


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
    return ImpliedEffect(k, estimate, se, *_t_and_p(estimate, se, fit.df))


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
    _check_mixture_rows(factors[:, :fit.m])
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
    write_json(path, report)
