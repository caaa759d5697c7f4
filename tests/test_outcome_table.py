"""The analysis stages read outcomes.csv as columns: their datasets must equal,
bit for bit, those of the row-by-row reader the columns replaced."""

import csv
import json
import re

import numpy as np
import pytest

from mixrobust import cli
from mixrobust.cli import EXIT_IO, EXIT_OK, main
from mixrobust.design import DesignConfig, TestScenario, build_run_plan
from mixrobust.metrics import (MetricsError, OutcomeTable, RunOutcome, read_outcome_table,
                               read_outcomes_csv, write_outcomes_csv)
from mixrobust.mixmodel import dataset_from_outcomes, dataset_from_table

from test_pipeline import small_config_doc

# (m, covariate levels, replicates): the criterion-7 shape and an m=5 one
SHAPES = {"c7": (3, [[1, 0], [1, 0]], 3), "m5": (5, [[1, 0], [1, 0], [1, 0]], 2)}


def reference_outcomes(path):
    """The row-by-row reader: float() per field, each row's mixture
    renormalized on its own."""
    with open(path, newline="") as handle:
        header, *rows = [row for row in csv.reader(handle) if row]
    m = sum(name.startswith("auc_") for name in header)
    h = sum(name.startswith("z") for name in header)
    outcomes = []
    for row in rows:
        mixture = np.asarray(row[3 + h:3 + h + m], dtype=float)
        outcomes.append(RunOutcome(
            run_id=int(row[0]), replicate=int(row[1]), scenario=TestScenario.parse(row[2]),
            covariates=tuple(float(v) for v in row[3:3 + h]),
            train_mixture=tuple(mixture / mixture.sum()),
            aucs=tuple(float(v) for v in row[3 + h + m:3 + h + 2 * m]),
            mean_auc=float(row[-3]), log_sd=float(row[-2]),
            degenerate_sd=bool(int(row[-1]))))
    return outcomes


def reference_arrays(outcomes, response):
    return (np.array([getattr(out, response) for out in outcomes]),
            np.array([out.train_mixture for out in outcomes]),
            np.array([out.covariates for out in outcomes]))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dataset_bits(data):
    return (data.y, data.mixtures, data.covariates)


def write_shaped_outcomes(path, shape, seed=7):
    """Synthetic outcomes for every run of a design: each class's AUC rises
    with its training share and the covariates, plus noise."""
    m, levels, replicates = shape
    design = DesignConfig(m=m, min_prop=0.01, replicates=replicates,
                          covariate_levels=levels, seed=seed)
    plan = build_run_plan(design)
    mixtures = np.array([r.train_mixture for r in plan.runs])
    covariates = np.array([r.covariates for r in plan.runs])
    noise = np.random.default_rng(seed).normal(0.0, 0.02, size=mixtures.shape)
    aucs = np.clip(0.72 + 0.2 * mixtures + 0.02 * covariates.sum(axis=1, keepdims=True)
                   + noise, 0.5, 0.999)
    outcomes = [RunOutcome.from_aucs(r.run_id, r.replicate, r.scenario, r.covariates,
                                     r.train_mixture, row)
                for r, row in zip(plan.runs, aucs)]
    write_outcomes_csv(outcomes, m, len(levels), path)
    return design


def shaped_experiment(tmp_path, name):
    """A config and its outcomes.csv for one SHAPES entry; returns the config path."""
    m, levels, replicates = SHAPES[name]
    doc = small_config_doc(replicates=replicates)
    doc["design"].update(m=m, covariate_levels=levels)
    for spec in doc["pools"].values():
        spec["synthetic"].update(m=m, d=m)
    (tmp_path / "out").mkdir()
    write_shaped_outcomes(tmp_path / "out" / "outcomes.csv", SHAPES[name],
                          seed=doc["master_seed"])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    return config_path


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_outcomes_equal_row_reader(tmp_path, name):
    path = tmp_path / "outcomes.csv"
    write_shaped_outcomes(path, SHAPES[name])
    assert read_outcomes_csv(path) == reference_outcomes(path)


@pytest.mark.parametrize("m", [3, 5, 9])
def test_random_mixtures_renormalize_as_row_reader(tmp_path, m):
    # design points repeat a few mixtures; random ones reach the float sums
    # whose rounding depends on the order of the additions. Millionths that
    # add up to 1 print exactly, so every stored sum is within tolerance.
    rng = np.random.default_rng(m)
    mixtures = rng.multinomial(10**6, np.ones(m) / m, size=2000) / 10**6
    outcomes = [RunOutcome.from_aucs(i, 1, TestScenario.BALANCED, (1.0,), x,
                                     rng.uniform(0.5, 1.0, m))
                for i, x in enumerate(mixtures, start=1)]
    path = tmp_path / "outcomes.csv"
    write_outcomes_csv(outcomes, m, 1, path)
    got = read_outcome_table(path).train_mixture
    want = np.array([out.train_mixture for out in reference_outcomes(path)])
    assert same_bits(got, want)


@pytest.mark.parametrize("m", [3, 6, 9, 10])
def test_rounded_random_mixtures_renormalize_as_row_reader(tmp_path, m):
    # mixtures that sum to 1 as floats: each part rounds on its own, so the
    # stored sums spread up to m half-millionths from 1
    rng = np.random.default_rng(m)
    mixtures = rng.dirichlet(np.ones(m), size=2000)
    outcomes = [RunOutcome.from_aucs(i, 1, TestScenario.BALANCED, (1.0,), x,
                                     rng.uniform(0.5, 1.0, m))
                for i, x in enumerate(mixtures, start=1)]
    path = tmp_path / "outcomes.csv"
    write_outcomes_csv(outcomes, m, 1, path)
    got = read_outcome_table(path).train_mixture
    want = np.array([out.train_mixture for out in reference_outcomes(path)])
    assert same_bits(got, want)


@pytest.mark.parametrize("m", range(2, 11))
def test_stored_sum_bound_is_half_a_millionth_per_part(tmp_path, m):
    # a row off by floor(m / 2) millionths is within m half-millionths of 1
    # and reads; one millionth more exits
    path = tmp_path / "outcomes.csv"
    for extra, readable in [(m // 2, True), (m // 2 + 1, False)]:
        parts = [10**6 // m] * m
        parts[0] += 10**6 - sum(parts) + extra
        write_outcomes_csv([RunOutcome.from_aucs(1, 1, TestScenario.BALANCED, (1.0,),
                                                 np.array(parts) / 10**6, [0.8] * m)],
                           m, 1, path)
        stored = path.read_text().splitlines()[1].split(",")[4:4 + m]
        assert sum(int(v.replace(".", "")) for v in stored) == 10**6 + extra
        if readable:
            assert read_outcome_table(path).train_mixture.sum() == pytest.approx(1.0)
        else:
            with pytest.raises(MetricsError, match=re.escape(
                    f"{path}:2: run 1 mixture: stored proportions sum to ")):
                read_outcome_table(path)


@pytest.mark.parametrize("scenario", [None, "balanced", "reverse"])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_analyze_datasets_equal_row_reader(tmp_path, monkeypatch, name, scenario):
    config_path = shaped_experiment(tmp_path, name)
    seen = []
    build = cli.build_design_matrix
    monkeypatch.setattr(cli, "build_design_matrix",
                        lambda data: seen.append(data) or build(data))
    argv = ["analyze", "--config", str(config_path)]
    if scenario is not None:
        argv += ["--scenario", scenario]
    assert main(argv) == EXIT_OK

    path = tmp_path / "out" / "outcomes.csv"
    rows, outcomes = reference_outcomes(path), read_outcomes_csv(path)
    scenarios = ([TestScenario(scenario)] if scenario is not None
                 else [TestScenario(s) for s in small_config_doc()["scenarios"]])
    wanted = [(s, response) for s in scenarios for response in cli.RESPONSES]
    assert [(d.scenario, d.response) for d in seen] == wanted
    for data, (s, response) in zip(seen, wanted):
        reference = reference_arrays([o for o in rows if o.scenario is s], response)
        assert all(map(same_bits, dataset_bits(data), reference))
        wrapped = dataset_from_outcomes([o for o in outcomes if o.scenario is s], response)
        assert all(map(same_bits, dataset_bits(data), dataset_bits(wrapped)))


def test_table_round_trips_through_outcomes(tmp_path):
    path = tmp_path / "outcomes.csv"
    write_shaped_outcomes(path, SHAPES["c7"])
    table = read_outcome_table(path)
    again = OutcomeTable.from_outcomes(table.outcomes())
    for name in ("run_id", "replicate", "covariates", "train_mixture", "aucs",
                 "mean_auc", "log_sd", "degenerate_sd"):
        assert same_bits(getattr(table, name), getattr(again, name)), name
    assert table.scenario.tolist() == again.scenario.tolist()
    rows = table.where(table.scenario == TestScenario.CONSISTENT)
    assert len(rows) == len(table) // 3
    assert dataset_from_table(rows, "log_sd").scenario is TestScenario.CONSISTENT


def test_bad_mixture_past_a_blank_line_exits_io_naming_its_line(tmp_path, capsys):
    config_path = shaped_experiment(tmp_path, "c7")
    path = tmp_path / "out" / "outcomes.csv"
    lines = path.read_text().splitlines()
    x1 = lines[0].split(",").index("x1")
    fields = lines[40].split(",")
    fields[x1] = "0.5"
    lines[40] = ",".join(fields)
    lines.insert(10, "")  # blank lines are skipped but still counted
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--config", str(config_path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert f"{path}:42: run {fields[0]} mixture: stored proportions sum to" in err
