import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import mixrobust
from mixrobust import (AnalysisDataset, MixtureModelFit, ModelError, ModelMatrix,
                       RunOutcome, TestScenario, build_design_matrix,
                       dataset_from_outcomes, fit_ols, fit_report,
                       implied_covariate_effect, model_matrix, model_row, predict,
                       predict_rows, term_inference, term_labels, write_fit_report)
from mixrobust.mixmodel import MIXTURE_ROW_TOL, n_terms
from mixrobust.seeding import generator

from reference_tables import CROSS_ARRAY_28, REFERENCE_INFERENCE

THIRD = 1.0 / 3.0


def make_matrix(values, m=3, h=2):
    return ModelMatrix(values=np.asarray(values, dtype=float),
                       labels=term_labels(m, h), m=m, h=h)


def make_fit(coefficients, covariance=None, df=71, m=3, h=2, n=84):
    p = len(coefficients)
    cov = np.zeros((p, p)) if covariance is None else np.asarray(covariance)
    return MixtureModelFit(coefficients=np.asarray(coefficients, dtype=float),
                           covariance=cov, sigma2=float("nan"), df=df,
                           labels=term_labels(m, h), m=m, h=h, n=n, rss=0.0)


def reference_model_row(x, z):
    """Per-row loop builder kept as the oracle for the array code."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    m, h = x.size, z.size
    parts = [x]
    parts.append(np.array([x[j] * x[jp] for j in range(m) for jp in range(j + 1, m)]))
    parts.append(np.array([z[k] * x[j] for k in range(h) for j in range(m)]))
    parts.append(np.array([z[k] * z[kp] for k in range(h) for kp in range(k + 1, h)]))
    return np.concatenate([p for p in parts if p.size])


def reference_coefficients(scenario, response):
    table = REFERENCE_INFERENCE[(scenario, response)]
    return np.array([float(est) for (_, est, _, _, _) in table["terms"]])


class TestModelRowAndLabels:
    def test_label_order_and_count(self):
        assert term_labels(3, 2) == [
            "x1", "x2", "x3", "x1x2", "x1x3", "x2x3",
            "x1z1", "x2z1", "x3z1", "x1z2", "x2z2", "x3z2", "z1z2"]

    def test_centroid_row(self):
        row = model_row((THIRD, THIRD, THIRD), (1, 1))
        want = [THIRD] * 3 + [THIRD ** 2] * 3 + [THIRD] * 6 + [1.0]
        assert np.allclose(row, want, atol=1e-15)

    def test_dominant_class_row_products(self):
        row = model_row((0.01, 0.01, 0.98), (1, 0))
        labels = term_labels(3, 2)
        get = dict(zip(labels, row))
        assert get["x1x2"] == pytest.approx(0.0001, abs=1e-18)
        assert get["x1x3"] == pytest.approx(0.0098, abs=1e-18)
        assert get["x2x3"] == pytest.approx(0.0098, abs=1e-18)
        assert get["x1z2"] == get["x2z2"] == get["x3z2"] == 0.0
        assert get["z1z2"] == 0.0

    def test_thirteen_columns_for_reference_shape(self):
        assert len(term_labels(3, 2)) == 13
        assert model_row((0.2, 0.3, 0.5), (1, 0)).size == 13

    @pytest.mark.parametrize("m", range(2, 11))
    @pytest.mark.parametrize("h", range(4))
    def test_each_column_is_the_product_its_label_names(self, m, h):
        rng = generator(90 + 4 * m + h, "labels")
        mixtures = rng.dirichlet(np.ones(m), size=11)
        covariates = rng.normal(size=(11, h))
        factors = {f"x{j + 1}": mixtures[:, j] for j in range(m)}
        factors.update({f"z{k + 1}": covariates[:, k] for k in range(h)})
        matrix = model_matrix(mixtures, covariates)
        labels = term_labels(m, h)
        assert len(set(labels)) == len(labels) == matrix.shape[1]
        for column, label in zip(matrix.T, labels):
            names = re.findall(r"[xz]\d+", label)
            assert "".join(names) == label and len(names) in (1, 2)
            want = np.prod([factors[name] for name in names], axis=0)
            assert column.tobytes() == want.tobytes(), label


class TestModelMatrix:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("h", [0, 1, 2, 3])
    def test_equals_stacked_per_row_reference_bit_for_bit(self, m, h):
        rng = generator(60 + 4 * m + h, "matrix")
        mixtures = rng.dirichlet(np.ones(m), size=17)
        covariates = rng.normal(size=(17, h))
        covariates[::2] = rng.integers(0, 2, size=(9, h))  # the design's 0/1 levels
        got = model_matrix(mixtures, covariates)
        want = np.array([reference_model_row(x, z)
                         for x, z in zip(mixtures, covariates)])
        assert got.shape == (17, n_terms(m, h)) == (17, len(term_labels(m, h)))
        assert got.tobytes() == want.tobytes()
        # row-major like the stacked rows, so the fit sees the same layout
        assert got.flags.c_contiguous

    def test_model_row_without_covariates(self):
        row = model_row((0.2, 0.3, 0.5), ())
        assert row.tolist() == [0.2, 0.3, 0.5, 0.2 * 0.3, 0.2 * 0.5, 0.3 * 0.5]

    def test_prediction_alone_equals_prediction_in_batch(self):
        rng = generator(61, "batch")
        fit = make_fit(rng.normal(size=33), m=5, h=3)
        mixtures = rng.dirichlet(np.ones(5), size=40)
        covariates = rng.integers(0, 2, size=(40, 3)).astype(float)
        batch = predict_rows(fit, mixtures, covariates)
        alone = [predict(fit, x, z) for x, z in zip(mixtures, covariates)]
        assert batch.tolist() == alone

    def test_prediction_rejects_wrong_widths(self):
        fit = make_fit(np.zeros(13))
        with pytest.raises(ModelError, match="expects 3 mixture parts"):
            predict(fit, (0.5, 0.5), (0, 0))
        with pytest.raises(ModelError, match="expects 3 mixture parts"):
            predict(fit, (0.2, 0.3, 0.5), (0, 0, 1))


class TestIdentifiabilityIdentities:
    def test_quadratic_and_main_covariate_columns_are_dependent(self, reference_matrix_84):
        labels = term_labels(3, 2)
        matrix = reference_matrix_84
        x = {j: matrix[:, labels.index(f"x{j}")] for j in (1, 2, 3)}
        pair = {(1, 2): matrix[:, labels.index("x1x2")],
                (1, 3): matrix[:, labels.index("x1x3")],
                (2, 3): matrix[:, labels.index("x2x3")]}
        for j in (1, 2, 3):
            cross = sum(pair[tuple(sorted((j, other)))] for other in (1, 2, 3)
                        if other != j)
            assert np.max(np.abs(x[j] ** 2 - (x[j] - cross))) <= 1e-10
        for k in (1, 2):
            zx = sum(matrix[:, labels.index(f"x{j}z{k}")] for j in (1, 2, 3))
            z = np.array([row[3 + k - 1] for row in CROSS_ARRAY_28] * 3, dtype=float)
            assert np.max(np.abs(z - zx)) <= 1e-10


class TestFitOls:
    def test_saturated_fit_rejected(self):
        rng = generator(21, "sat2")
        with pytest.raises(ModelError, match="need at least 14 observations for p=13"):
            fit_ols(make_matrix(rng.normal(size=(13, 13))), rng.normal(size=13))

    def test_noiseless_recovery(self, reference_matrix_84):
        rng = generator(22, "exact")
        beta_star = rng.normal(size=13)
        y = reference_matrix_84 @ beta_star
        fit = fit_ols(make_matrix(reference_matrix_84), y)
        assert np.max(np.abs(fit.coefficients - beta_star)) <= 1e-8
        assert fit.df == 71

    def test_residuals_orthogonal_to_columns(self, reference_matrix_84):
        rng = generator(23, "orth")
        y = reference_matrix_84 @ rng.normal(size=13) + rng.normal(size=84)
        fit = fit_ols(make_matrix(reference_matrix_84), y)
        residual = y - reference_matrix_84 @ fit.coefficients
        assert np.max(np.abs(reference_matrix_84.T @ residual)) \
            <= 1e-8 * np.linalg.norm(y)

    def test_coverage_sanity(self, reference_matrix_84):
        # small Monte Carlo here; the acceptance suite runs the full one
        rng = generator(24, "cover")
        beta_star = rng.normal(size=13)
        sigma = 0.3
        crit = stats.t.ppf(0.975, 71)
        hits = np.zeros(13)
        reps = 120
        for _ in range(reps):
            y = reference_matrix_84 @ beta_star + sigma * rng.normal(size=84)
            fit = fit_ols(make_matrix(reference_matrix_84), y)
            se = np.sqrt(np.diag(fit.covariance))
            lo = fit.coefficients - crit * se
            hi = fit.coefficients + crit * se
            hits += (lo <= beta_star) & (beta_star <= hi)
        assert np.all(hits / reps >= 0.85)
        assert np.all(hits / reps <= 1.0)

    def test_r_factor_keeps_the_singular_values(self, reference_matrix_84):
        # the rank test reads them off R, not off the full model matrix
        _, r = np.linalg.qr(reference_matrix_84)
        assert np.allclose(np.linalg.svd(r, compute_uv=False),
                           np.linalg.svd(reference_matrix_84, compute_uv=False),
                           rtol=1e-12, atol=0)

    def test_rank_deficiency_names_dependent_columns(self, reference_matrix_84):
        # append the z1 main-effect column, which the interactions span
        labels = term_labels(3, 2) + ["z1"]
        z1 = np.array([row[3] for row in CROSS_ARRAY_28] * 3, dtype=float)
        values = np.column_stack([reference_matrix_84, z1])
        matrix = ModelMatrix(values=values, labels=labels, m=3, h=2)
        with pytest.raises(ModelError) as err:
            fit_ols(matrix, np.zeros(84))
        message = str(err.value)
        assert "dependent columns" in message
        assert "z1" in message

    def test_sigma2_is_rss_over_df(self, reference_matrix_84):
        rng = generator(25, "s2")
        y = reference_matrix_84 @ rng.normal(size=13) + rng.normal(size=84)
        fit = fit_ols(make_matrix(reference_matrix_84), y)
        assert fit.sigma2 == pytest.approx(fit.rss / 71, rel=1e-12)


class TestInference:
    def test_printed_example_t(self):
        est, se = 0.4400, 0.0173
        cov = np.zeros((13, 13))
        cov[0, 0] = se ** 2
        fit = make_fit([est] + [0.0] * 12, covariance=cov)
        rows = term_inference(fit)
        assert rows[0].t == pytest.approx(est / se, abs=1e-12)
        assert rows[0].t == pytest.approx(25.440, abs=0.02)
        assert rows[0].p < 0.001

    def test_degenerate_zero_se(self):
        fit = make_fit(np.ones(13))
        rows = term_inference(fit)
        assert all(r.degenerate for r in rows)

    def test_needs_residual_df(self):
        fit = make_fit(np.ones(13), df=0)
        with pytest.raises(ModelError):
            term_inference(fit)


class TestImpliedEffect:
    def test_reference_z1_mean(self):
        coeffs = reference_coefficients("balanced", "mean_auc")
        fit = make_fit(coeffs, covariance=np.eye(13))
        eff = implied_covariate_effect(fit, 1)
        assert eff.estimate == pytest.approx((0.2532 + 0.1660 - 0.0148) / 3, abs=1e-12)
        assert eff.estimate == pytest.approx(0.1348, abs=5e-4)

    def test_reference_z2_means(self):
        coeffs = reference_coefficients("balanced", "mean_auc")
        fit = make_fit(coeffs, covariance=np.eye(13))
        assert implied_covariate_effect(fit, 2).estimate \
            == pytest.approx(-0.007, abs=5e-4)
        coeffs_sd = reference_coefficients("balanced", "log_sd")
        fit_sd = make_fit(coeffs_sd, covariance=np.eye(13))
        assert implied_covariate_effect(fit_sd, 2).estimate \
            == pytest.approx(-1.766, abs=5e-4)

    def test_equal_interactions_average_to_themselves(self):
        coeffs = np.zeros(13)
        for j, label in enumerate(term_labels(3, 2)):
            if label.endswith("z1"):
                coeffs[j] = 0.42
        fit = make_fit(coeffs, covariance=np.eye(13))
        assert implied_covariate_effect(fit, 1).estimate == pytest.approx(0.42, abs=1e-15)

    def test_se_is_contrast_standard_deviation(self, reference_matrix_84):
        rng = generator(26, "eff")
        y = reference_matrix_84 @ rng.normal(size=13) + 0.5 * rng.normal(size=84)
        fit = fit_ols(make_matrix(reference_matrix_84), y)
        eff = implied_covariate_effect(fit, 1)
        contrast = np.zeros(13)
        for j, label in enumerate(fit.labels):
            if label in ("x1z1", "x2z1", "x3z1"):
                contrast[j] = 1 / 3
        assert eff.se == pytest.approx(
            float(np.sqrt(contrast @ fit.covariance @ contrast)), rel=1e-12)
        assert eff.estimate == pytest.approx(float(contrast @ fit.coefficients),
                                             rel=1e-12)

    def test_missing_columns_rejected(self):
        fit = make_fit(np.ones(13))
        with pytest.raises(ModelError):
            implied_covariate_effect(fit, 3)


class TestPredict:
    def test_reference_centroid_prediction(self):
        coeffs = reference_coefficients("balanced", "mean_auc")
        fit = make_fit(coeffs)
        got = predict(fit, (THIRD, THIRD, THIRD), (0, 0))
        want = (0.4400 + 0.5455 + 0.8599) / 3 + (0.5989 + 0.6472 + 0.5512) / 9
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.81483, abs=5e-6)

    def test_zero_covariates_use_only_mixture_terms(self):
        rng = generator(27, "pred")
        coeffs = rng.normal(size=13)
        fit = make_fit(coeffs)
        x = (0.2, 0.3, 0.5)
        with_z = predict(fit, x, (0, 0))
        mixture_only = coeffs[:6] @ model_row(x, (0, 0))[:6]
        assert with_z == pytest.approx(mixture_only, abs=1e-14)

    def test_reproduces_fitted_value_at_design_row(self, reference_matrix_84):
        rng = generator(28, "pred2")
        y = reference_matrix_84 @ rng.normal(size=13) + 0.1 * rng.normal(size=84)
        fit = fit_ols(make_matrix(reference_matrix_84), y)
        fitted = reference_matrix_84 @ fit.coefficients
        row_idx = 2  # (0.98, 0.01, 0.01) under z=(1,1)
        got = predict(fit, (0.98, 0.01, 0.01), (1, 1))
        assert got == pytest.approx(float(fitted[row_idx]), abs=1e-12)

    def test_rejects_non_mixture(self):
        fit = make_fit(np.zeros(13))
        with pytest.raises(ModelError):
            predict(fit, (0.5, 0.2, 0.2), (0, 0))


class TestDatasetAndReport:
    def _outcomes(self, scenario=TestScenario.BALANCED):
        rng = generator(29, "out")
        outs = []
        for i, (x1, x2, x3, z1, z2) in enumerate(CROSS_ARRAY_28, start=1):
            outs.append(RunOutcome.from_aucs(
                i, 1, scenario, (z1, z2), (x1, x2, x3),
                np.clip(rng.random(3) * 0.4 + 0.55, 0, 1)))
        return outs

    def test_mixed_scenarios_refused(self):
        outs = self._outcomes()
        outs[0] = RunOutcome.from_aucs(1, 1, TestScenario.REVERSE, (1, 1),
                                       (0.01, 0.01, 0.98), (0.9, 0.8, 0.7))
        with pytest.raises(ModelError, match="separately"):
            dataset_from_outcomes(outs, "mean_auc")

    def test_unknown_response_refused(self):
        with pytest.raises(ModelError):
            dataset_from_outcomes(self._outcomes(), "f1_score")

    def test_design_matrix_from_outcomes(self):
        data = dataset_from_outcomes(self._outcomes(), "mean_auc")
        matrix = build_design_matrix(data)
        assert matrix.values.shape == (28, 13)
        assert matrix.labels == term_labels(3, 2)

    def test_fit_report_layout(self, tmp_path, reference_matrix_84):
        rng = generator(30, "rep")
        y = reference_matrix_84 @ rng.normal(size=13) + 0.2 * rng.normal(size=84)
        fit = fit_ols(make_matrix(reference_matrix_84), y)
        report = fit_report(fit, TestScenario.BALANCED, "mean_auc")
        assert len(report["terms"]) == 13
        assert len(report["implied_effects"]) == 2
        assert report["df"] == 71
        path = tmp_path / "fit.json"
        write_fit_report(report, path)
        loaded = json.loads(path.read_text())
        assert [t["label"] for t in loaded["terms"]] == term_labels(3, 2)
        assert loaded["implied_effects"][0]["covariate"] == "z1"


class TestAnalysisDatasetValidation:
    def test_rejects_non_summing_mixture(self):
        with pytest.raises(ModelError):
            AnalysisDataset(y=np.zeros(2), mixtures=np.array([[0.5, 0.2, 0.2]] * 2),
                            covariates=np.zeros((2, 2)),
                            scenario=TestScenario.BALANCED, response="mean_auc")

    @pytest.mark.parametrize("field, row", [("y", 0), ("mixtures", 2), ("covariates", 1)])
    def test_rejects_non_finite_values_naming_the_row(self, field, row):
        arrays = {"y": np.zeros(4), "mixtures": np.full((4, 3), THIRD),
                  "covariates": np.zeros((4, 2))}
        arrays[field][row] = np.nan
        arrays[field][3] = np.inf
        with pytest.raises(ModelError, match=f"non-finite {field} in row {row} "):
            AnalysisDataset(**arrays, scenario=TestScenario.BALANCED, response="mean_auc")

    def test_fit_and_prediction_share_the_mixture_row_rule(self):
        fit = make_fit(np.zeros(13))
        for off, ok in ((0.9 * MIXTURE_ROW_TOL, True), (1.1 * MIXTURE_ROW_TOL, False)):
            mixtures = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2 + off]])
            calls = (lambda: AnalysisDataset(y=np.zeros(2), mixtures=mixtures,
                                             covariates=np.zeros((2, 2)),
                                             scenario=TestScenario.BALANCED,
                                             response="mean_auc"),
                     lambda: predict_rows(fit, mixtures, np.zeros((2, 2))))
            for call in calls:
                if ok:
                    call()
                else:
                    with pytest.raises(ModelError, match="^mixture row 1 sums to "):
                        call()


def _scipy_imports(tree):
    """The scipy import statements at or under an AST node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node


def test_only_mixmodel_imports_scipy():
    """The fit layer is the one module that needs scipy, and it imports scipy
    only inside function bodies: every stage starts without it, and only a fit
    loads it."""
    importers = set()
    for path in sorted(Path(mixrobust.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = set(_scipy_imports(tree))
        if imports:
            importers.add(path.stem)
        in_functions = {node for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in _scipy_imports(fn)}
        at_import_time = sorted(node.lineno for node in imports - in_functions)
        assert not at_import_time, f"{path.name} imports scipy at lines {at_import_time}"
    assert importers == {"mixmodel"}
