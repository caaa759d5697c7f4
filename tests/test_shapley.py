import csv
import io

import numpy as np
import pytest

from mixrobust import (ShapReport, exact_shapley_oracle, fit_ols, shap_importance,
                       shap_per_observation, shap_report, term_labels)
from mixrobust import shapley
from mixrobust.design import DesignConfig, TestScenario, build_run_plan
from mixrobust.mixmodel import MixtureModelFit, ModelMatrix, model_matrix
from mixrobust.shapley import ShapError, write_phi_csv, write_shap_json
from mixrobust.seeding import generator


def make_fit_and_matrix(values, coefficients, m=3, h=2):
    labels = term_labels(m, h)[:values.shape[1]] \
        if values.shape[1] <= len(term_labels(m, h)) \
        else [f"c{i}" for i in range(values.shape[1])]
    if len(labels) < values.shape[1]:
        labels = [f"c{i}" for i in range(values.shape[1])]
    matrix = ModelMatrix(values=values, labels=labels, m=m, h=h)
    p = values.shape[1]
    fit = MixtureModelFit(coefficients=np.asarray(coefficients, dtype=float),
                          covariance=np.zeros((p, p)), sigma2=0.0, df=1,
                          labels=labels, m=m, h=h, n=values.shape[0], rss=0.0)
    return fit, matrix


class TestPerObservation:
    def test_two_point_column(self):
        values = np.array([[1.0], [3.0]])
        fit, matrix = make_fit_and_matrix(values, [2.0])
        phi = shap_per_observation(fit, matrix)
        assert phi[:, 0].tolist() == [-2.0, 2.0]

    def test_columns_center_to_zero(self):
        rng = generator(31, "phi")
        values = rng.normal(size=(40, 13))
        fit, matrix = make_fit_and_matrix(values, rng.normal(size=13))
        phi = shap_per_observation(fit, matrix)
        assert np.max(np.abs(phi.sum(axis=0))) <= 1e-9 * max(1.0, np.abs(phi).max())

    def test_row_sums_give_centered_prediction(self):
        rng = generator(32, "phi")
        values = rng.normal(size=(60, 13))
        beta = rng.normal(size=13)
        fit, matrix = make_fit_and_matrix(values, beta)
        phi = shap_per_observation(fit, matrix)
        fitted = values @ beta
        assert np.max(np.abs(phi.sum(axis=1) - (fitted - fitted.mean()))) <= 1e-10


class TestImportance:
    def test_half_zero_half_one_column(self):
        values = np.array([[0.0], [1.0], [0.0], [1.0]])
        fit, matrix = make_fit_and_matrix(values, [1.0])
        phi = shap_per_observation(fit, matrix)
        assert shap_importance(phi)[0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_coefficient_zero_importance(self):
        rng = generator(33, "imp")
        values = rng.normal(size=(20, 2))
        fit, matrix = make_fit_and_matrix(values, [0.0, 1.5])
        importance = shap_importance(shap_per_observation(fit, matrix))
        assert importance[0] == 0.0
        assert importance[1] > 0.0

    def test_importances_match_oracle_means(self):
        rng = generator(34, "imp")
        values = rng.normal(size=(25, 6))
        beta = rng.normal(size=6)
        fit, matrix = make_fit_and_matrix(values, beta)
        importance = shap_importance(shap_per_observation(fit, matrix))
        means = values.mean(axis=0)
        oracle_abs = np.abs([exact_shapley_oracle(beta, row, means) for row in values])
        assert np.max(np.abs(importance - oracle_abs.mean(axis=0))) <= 1e-10


class TestOracle:
    def test_single_feature(self):
        phi = exact_shapley_oracle([2.0], [5.0], [3.0])
        assert phi[0] == pytest.approx(2.0 * (5.0 - 3.0), abs=1e-15)

    def test_matches_closed_form_small(self):
        rng = generator(35, "oracle")
        for _ in range(30):
            p = int(rng.integers(1, 8))
            beta = rng.normal(size=p)
            row = rng.normal(size=p)
            means = rng.normal(size=p)
            phi = exact_shapley_oracle(beta, row, means)
            assert np.max(np.abs(phi - beta * (row - means))) <= 1e-12

    def test_efficiency(self):
        rng = generator(36, "oracle")
        beta = rng.normal(size=9)
        row = rng.normal(size=9)
        means = rng.normal(size=9)
        phi = exact_shapley_oracle(beta, row, means)
        assert phi.sum() == pytest.approx(float(beta @ row - beta @ means), abs=1e-10)

    def test_rejects_large_p(self):
        with pytest.raises(ShapError):
            exact_shapley_oracle(np.ones(21), np.ones(21), np.zeros(21))

    def test_scale_invariance_of_phi(self):
        rng = generator(37, "oracle")
        beta = rng.normal(size=5)
        row = rng.normal(size=5)
        means = rng.normal(size=5)
        base = exact_shapley_oracle(beta, row, means)
        s = 3.7
        scaled = exact_shapley_oracle(beta / s, row * s, means * s)
        assert np.max(np.abs(base - scaled)) <= 1e-12


class TestConstantShiftInvariance:
    def test_attribution_invariant_when_response_shifts(self, reference_matrix_84):
        # a constant shift is expressible as c * sum(x_j) in this model, so
        # refitting on y + c moves every mixture main-effect coefficient by c
        # and nothing else: interaction and covariate attributions are exactly
        # unchanged, and the main-effect attributions change only in how the
        # constant splits among them (their per-observation sum is invariant
        # because the x_j deviations sum to zero row-wise)
        rng = generator(38, "shift")
        matrix = ModelMatrix(values=reference_matrix_84, labels=term_labels(3, 2),
                             m=3, h=2)
        y = reference_matrix_84 @ rng.normal(size=13) + 0.1 * rng.normal(size=84)
        fit_a = fit_ols(matrix, y)
        fit_b = fit_ols(matrix, y + 2.5)
        assert np.max(np.abs((fit_b.coefficients - fit_a.coefficients)[:3] - 2.5)) \
            <= 1e-8
        assert np.max(np.abs((fit_b.coefficients - fit_a.coefficients)[3:])) <= 1e-8
        phi_a = shap_per_observation(fit_a, matrix)
        phi_b = shap_per_observation(fit_b, matrix)
        keep = [i for i, lab in enumerate(matrix.labels) if lab not in ("x1", "x2", "x3")]
        assert np.max(np.abs(phi_a[:, keep] - phi_b[:, keep])) <= 1e-8
        assert np.max(np.abs(shap_importance(phi_a)[keep]
                             - shap_importance(phi_b)[keep])) <= 1e-8
        assert np.max(np.abs(phi_a[:, :3].sum(axis=1) - phi_b[:, :3].sum(axis=1))) \
            <= 1e-8
        assert np.max(np.abs(phi_a.sum(axis=1) - phi_b.sum(axis=1))) <= 1e-8


class TestReportEmission:
    def test_report_and_files(self, tmp_path, reference_matrix_84):
        rng = generator(39, "emit")
        matrix = ModelMatrix(values=reference_matrix_84, labels=term_labels(3, 2),
                             m=3, h=2)
        y = reference_matrix_84 @ rng.normal(size=13) + 0.1 * rng.normal(size=84)
        fit = fit_ols(matrix, y)
        report = shap_report(fit, matrix)
        assert isinstance(report, ShapReport)
        assert report.phi.shape == (84, 13)
        assert np.all(report.importance >= 0)
        json_path = tmp_path / "shap.json"
        write_shap_json(report, json_path, scenario="balanced", response="mean_auc")
        import json as jsonlib
        doc = jsonlib.loads(json_path.read_text())
        importances = [e["importance"] for e in doc["importances"]]
        assert importances == sorted(importances, reverse=True)
        csv_path = tmp_path / "phi.csv"
        write_phi_csv(report, csv_path)
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",") == term_labels(3, 2)

    def test_phi_csv_bytes_match_csv_writer(self, tmp_path):
        rng = generator(40, "phi")
        phi = rng.normal(size=(30, 13)) * np.logspace(-12, 6, 13)
        phi[3, 4] = 0.0
        # replicated rows, rows apart only in the sign of a zero, a NaN row
        phi = np.concatenate([phi, phi[::-1], phi[:4]])
        phi[60, :] = phi[3, :]
        phi[60, 4] = -0.0
        phi[61, :] = np.nan
        phi[62, :] = np.nan
        phi[63, 0] = -phi[63, 0]
        report = ShapReport(labels=term_labels(3, 2), phi=phi,
                            importance=shap_importance(phi))
        path = tmp_path / "phi.csv"
        write_phi_csv(report, path)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.labels)
        for row in phi:
            writer.writerow([f"{v:.10g}" for v in row])
        assert path.read_text() == buf.getvalue()
        lines = path.read_text().splitlines()
        assert lines[1 + 60] != lines[1 + 3] and ",-0," in lines[1 + 60]

    def test_phi_rows_of_replicates_format_once(self, tmp_path, monkeypatch):
        # the m=5 design with 3 two-level covariates: 31 blends x 8 covariate
        # levels, 10 replicates of each
        design = DesignConfig(m=5, min_prop=0.01, replicates=10,
                              covariate_levels=[[1, 0]] * 3)
        runs = [r for r in build_run_plan(design).runs
                if r.scenario is TestScenario.BALANCED]
        values = model_matrix(np.array([r.train_mixture for r in runs]),
                              np.array([r.covariates for r in runs], dtype=float))
        fit, matrix = make_fit_and_matrix(values, generator(41, "phi").normal(
            size=values.shape[1]), m=5, h=3)
        distinct = []
        group = shapley._distinct_rows
        monkeypatch.setattr(shapley, "_distinct_rows",
                            lambda phi: distinct.append(group(phi)[0].size) or group(phi))
        report = shap_report(fit, matrix)
        write_phi_csv(report, tmp_path / "phi.csv")
        assert report.phi.shape[0] == 2480 and distinct == [248]
        lines = (tmp_path / "phi.csv").read_text().splitlines()[1:]
        assert lines == [",".join(f"{v:.10g}" for v in row) for row in report.phi]
