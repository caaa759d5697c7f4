import hashlib
import json
import multiprocessing
import os
import re
import shutil
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mixrobust import classifiers, cli, pipeline, ternary
from mixrobust.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                           EXIT_USAGE, main)
from mixrobust.design import build_run_plan
from mixrobust.metrics import MetricsError
from mixrobust.mixmodel import RESPONSES, ModelError
from mixrobust.pipeline import ConfigError, parse_experiment_config

from test_outcome_table import shaped_experiment
from test_pipeline import small_config_doc
from test_ternary import make_fit, spy_on_lattice_parts


# each subcommand and its help text, in pipeline order
STAGE_HELP = [
    ("design", "write the expanded run plan CSV"),
    ("simulate", "execute built-in classifiers and write outcomes"),
    ("run", "execute runs via the external-runner protocol"),
    ("analyze", "fit both responses per scenario, write fit reports"),
    ("shap", "write per-column attribution reports"),
    ("contour", "write prediction grids and ternary SVG plots"),
    ("report", "bundle fit reports into one text summary"),
]


def write_config(tmp_path, doc=None, name="config.json"):
    doc = small_config_doc() if doc is None else doc
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    """One simulated experiment shared by the downstream-stage tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config_path = write_config(tmp_path)
    assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_OK
    assert main(["analyze", "--config", str(config_path)]) == EXIT_OK
    return tmp_path, config_path


class TestDesignCommand:
    def test_writes_full_plan(self, tmp_path, capsys):
        doc = small_config_doc(replicates=3)
        config_path = write_config(tmp_path, doc)
        assert main(["design", "--config", str(config_path)]) == EXIT_OK
        lines = (tmp_path / "out" / "plan.csv").read_text().splitlines()
        assert len(lines) == 1 + 252
        assert lines[0].startswith("run_id,scenario,replicate,x1,x2,x3,z1,z2,test_x1")

    def test_scenario_filter_keeps_full_plan_ids(self, tmp_path):
        config_path = write_config(tmp_path, small_config_doc(replicates=3))
        assert main(["design", "--config", str(config_path),
                     "--scenario", "reverse"]) == EXIT_OK
        lines = (tmp_path / "out" / "plan.csv").read_text().splitlines()[1:]
        assert len(lines) == 84
        run_ids = [int(line.split(",")[0]) for line in lines]
        assert run_ids == list(range(169, 253))

    def test_seed_override_changes_plan(self, tmp_path):
        config_path = write_config(tmp_path)
        main(["design", "--config", str(config_path)])
        base = (tmp_path / "out" / "plan.csv").read_text()
        main(["design", "--config", str(config_path), "--seed", "123"])
        assert (tmp_path / "out" / "plan.csv").read_text() != base


    def test_one_covariate_config_exits_config_before_writing(self, tmp_path, capsys):
        doc = small_config_doc()
        doc["design"]["covariate_levels"] = [[1, 0]]
        config_path = write_config(tmp_path, doc)
        assert main(["design", "--config", str(config_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"mixrobust: error: config {config_path}: the pipeline expects two "
            "covariates: the classifier level and the pool level\n")
        assert not (tmp_path / "out").exists()


# an external runner that scores every test row as class 1 until more than
# `after` runs have started, counted in the file `calls`; then it kills the
# pool worker that started it, whatever the start method. It kills its parent
# only while that parent descends from the suite's process: a runner orphaned
# by the pool's shutdown has been handed to another parent by then, which may
# be any process of the user's.
DYING_RUNNER = """\
import os, signal, sys
from pathlib import Path
calls, after, suite = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
workdir = Path(sys.argv[4])
with open(calls, "a") as fh:
    fh.write(".")
if calls.stat().st_size > after:
    worker = pid = os.getppid()
    while pid > 1 and pid != suite:
        with open(f"/proc/{pid}/stat") as fh:
            pid = int(fh.read().rsplit(")", 1)[1].split()[1])
    if pid == suite != worker:
        os.kill(worker, signal.SIGKILL)
    sys.exit(1)
rows = (workdir / "test.csv").read_text().splitlines()[1:]
(workdir / "scores.csv").write_text("score_1,score_2,score_3\\n" + "1,0,0\\n" * len(rows))
"""

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="the dying runner finds its ancestors in /proc")


def dying_runner_config(tmp_path, doc, after=20):
    """The config `doc` with DYING_RUNNER as its z1=1 classifier."""
    runner = tmp_path / "dying_runner.py"
    runner.write_text(DYING_RUNNER)
    doc["classifiers"]["1"] = {"kind": "external", "command": [
        sys.executable, str(runner), str(tmp_path / "calls"), str(after), str(os.getpid())]}
    return write_config(tmp_path, doc, name="dying.json")


@pytest.fixture(params=["fork", "forkserver", "spawn"])
def start_method(request, monkeypatch):
    """The pool's workers start by this method."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param} start method here")
    monkeypatch.setattr(pipeline, "START_METHOD", request.param)


class TestSimulateCommand:
    def test_outcomes_written(self, experiment_dir):
        tmp_path, _ = experiment_dir
        lines = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 1 + 84
        assert lines[0] == ("run_id,replicate,scenario,z1,z2,x1,x2,x3,"
                            "auc_1,auc_2,auc_3,mean_auc,log_sd,degenerate_flag")

    def test_rerun_byte_identical(self, experiment_dir, tmp_path):
        source, config_path = experiment_dir
        # the rerun goes over a copy: it removes the fits other tests read
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        assert main(["shap", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        assert main(["simulate", "--config", str(config_path), "--jobs", "1",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "outcomes.csv").read_bytes() == (source / "out" / "outcomes.csv").read_bytes()
        assert not list(out.glob("fit_*.json")) and not list(out.glob("shap_*.json"))

    def test_rerun_removes_every_later_stage_output(self, experiment_dir, tmp_path):
        source, config_path = experiment_dir
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        for command in ("shap", "contour", "report"):
            assert main([command, "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        # a grid of covariate levels the config no longer has, and a bystander
        (out / "grid_log_sd_reverse_z27.csv").write_text("old\n")
        (out / "notes.txt").write_text("mine\n")
        assert main(["simulate", "--config", str(config_path), "--jobs", "1", "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "notes.txt", "outcomes.csv", "plan.csv", "run_metadata.json"]

    def test_run_metadata_records_resolved_hyper(self, experiment_dir):
        tmp_path, _ = experiment_dir
        doc = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
        assert doc["classifiers"]["1"]["hyper"]["epochs"] == 80
        assert doc["classifiers"]["1"]["hyper"]["l2"] == 1e-4  # default kept
        assert doc["classifiers"]["0"]["hyper"]["rounds"] == 10
        assert doc["master_seed"] == 99

    def test_run_metadata_hyper_in_defaults_order(self, experiment_dir):
        tmp_path, _ = experiment_dir
        text = (tmp_path / "out" / "run_metadata.json").read_text()
        hyper = json.loads(text)["classifiers"]
        assert list(hyper["1"]["hyper"]) == ["epochs", "step", "l2"]
        assert list(hyper["0"]["hyper"]) == ["rounds", "shrinkage"]
        # overrides are parsed as floats; untouched defaults keep their type
        assert '"epochs": 80.0' in text and '"shrinkage": 0.1' in text

    @pytest.mark.parametrize("level,entry,allowed", [
        ("1", {"kind": "logistic", "hyper": {"epoch": 5}}, "epochs, step, l2"),
        ("0", {"kind": "boosted_stumps", "hyper": {"round": 2}}, "rounds, shrinkage"),
    ])
    def test_misspelled_hyper_key_exits_config(self, tmp_path, capsys, level, entry,
                                               allowed):
        doc = small_config_doc()
        doc["classifiers"][level] = entry
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path)]) == EXIT_CONFIG
        assert allowed in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("level,entry", [
        ("1", {"kind": "logistic", "hyper": {"epochs": -5}}),
        ("0", {"kind": "boosted_stumps", "hyper": {"rounds": 2.7}}),
        ("1", {"kind": "logistic", "hyper": {"epochs": "many"}}),
        ("1", {"kind": "logistic", "hyper": [1]}),
    ])
    def test_bad_hyper_value_exits_config(self, tmp_path, capsys, level, entry):
        doc = small_config_doc()
        doc["classifiers"][level] = entry
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path)]) == EXIT_CONFIG
        assert f"classifiers[{level}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pool_class_count_mismatch_exits_config(self, tmp_path, capsys):
        doc = small_config_doc()
        doc["pools"]["1"]["synthetic"].update(m=4, d=4)
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_CONFIG
        assert "the design needs exactly 1..3" in capsys.readouterr().err
        for name in ("plan.csv", "run_metadata.json", "outcomes.csv", "failures.csv"):
            assert not (tmp_path / "out" / name).exists()

    def test_test_count_over_class_size_exits_config(self, tmp_path, capsys):
        # 450 test rows: run 29, the first consistent one, needs 441 rows of
        # class 1, which holds 300
        doc = small_config_doc(n_per_class=300)
        doc["sampling"]["test_frac"] = 0.5
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_CONFIG
        assert ("run 29: 441 test points of class 1 requested but pool z2=1 holds only "
                "300") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["train_frac", "test_frac"])
    def test_empty_split_exits_config(self, tmp_path, capsys, key):
        doc = small_config_doc(n_per_class=40)
        doc["sampling"][key] = 0.001
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_CONFIG
        assert (f"sampling.{key} 0.001 rounds to 0 of the 120 rows of pool z2=0"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_external_kind_refused_by_simulate(self, tmp_path):
        doc = small_config_doc()
        doc["classifiers"]["1"] = {"kind": "external", "command": ["true"]}
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path)]) == EXIT_CONFIG

    def test_zero_jobs_exits_config_before_any_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["simulate", "--config", str(config_path), "--jobs", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "mixrobust: error: jobs must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_plan_checked_once_per_pool_and_test_mixture(self, tmp_path, monkeypatch):
        real, calls = pipeline.class_counts, []
        monkeypatch.setattr(pipeline, "class_counts",
                            lambda *args: calls.append(args) or real(*args))
        config_path = write_config(tmp_path)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_OK
        config = parse_experiment_config(small_config_doc(), tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        distinct = {(spec.covariates[1], spec.test_mixture) for spec in plan.runs}
        assert len(calls) == len(distinct) == 14

    def test_more_jobs_than_batches_write_the_serial_outcomes(self, tmp_path):
        # 4 batches: the pool is capped at 4 workers
        doc = small_config_doc()
        doc["scenarios"] = ["balanced"]
        config_path = write_config(tmp_path, doc)
        written = []
        for jobs in ("1", "8"):
            out = tmp_path / f"out{jobs}"
            assert main(["simulate", "--config", str(config_path), "--jobs", jobs,
                         "--out", str(out)]) == EXIT_OK
            written.append((out / "outcomes.csv").read_bytes())
        assert written[0] == written[1]

    def test_hyper_resolved_per_classifier_not_per_batch(self, tmp_path, monkeypatch):
        real, calls = classifiers.resolve_hyper, []
        monkeypatch.setattr(classifiers, "resolve_hyper",
                            lambda *args: calls.append(args) or real(*args))
        counts = []
        for replicates in (1, 2):  # 4 and 8 batches
            doc = small_config_doc(replicates=replicates)
            doc["scenarios"] = ["balanced"]
            config_path = write_config(tmp_path, doc, name=f"r{replicates}.json")
            calls.clear()
            assert main(["simulate", "--config", str(config_path), "--jobs", "1",
                         "--out", str(tmp_path / f"out{replicates}")]) == EXIT_OK
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @needs_proc
    def test_dead_worker_exits_numeric_without_outcomes(self, tmp_path, capsys,
                                                        start_method):
        config_path = dying_runner_config(tmp_path, small_config_doc(n_per_class=100))
        assert main(["run", "--config", str(config_path), "--jobs", "2"]) == EXIT_NUMERIC
        assert capsys.readouterr().err == ("mixrobust: error: a worker process died; "
                                           "this run wrote no outcomes\n")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "plan.csv", "run_metadata.json"]
        assert multiprocessing.active_children() == []

    @needs_proc
    def test_dead_worker_leaves_no_earlier_outcomes(self, tmp_path, capsys, start_method):
        # pools small enough that the earlier run leaves failures.csv too
        config_path = write_config(tmp_path, small_config_doc(n_per_class=40))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--seed", "99",
                     "--jobs", "1"]) == EXIT_NUMERIC
        assert (out / "outcomes.csv").exists() and (out / "failures.csv").exists()
        dying_path = dying_runner_config(tmp_path, small_config_doc(n_per_class=100))
        assert main(["run", "--config", str(dying_path), "--seed", "5",
                     "--jobs", "2"]) == EXIT_NUMERIC
        assert sorted(p.name for p in out.iterdir()) == ["plan.csv", "run_metadata.json"]
        capsys.readouterr()
        # so the fit stages cannot fit the seed-99 outcomes under seed 5's metadata
        assert main(["analyze", "--config", str(config_path), "--seed", "5"]) == EXIT_IO
        assert capsys.readouterr().err.endswith("; run `simulate` or `run` first\n")

    def test_outcomes_identical_under_every_start_method(self, experiment_dir, tmp_path,
                                                         start_method):
        config_path = write_config(tmp_path)
        assert main(["simulate", "--config", str(config_path), "--jobs", "2"]) == EXIT_OK
        assert ((tmp_path / "out" / "outcomes.csv").read_bytes()
                == (experiment_dir[0] / "out" / "outcomes.csv").read_bytes())

    def test_failures_exit_numeric(self, tmp_path):
        doc = small_config_doc(n_per_class=40)
        config_path = write_config(tmp_path, doc)
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            code = main(["simulate", "--config", str(config_path), "--jobs", jobs,
                         "--out", str(out)])
            assert code == EXIT_NUMERIC
            # the file as the one-run-at-a-time executor wrote it: 64 failures,
            # 36 single-class training draws and 28 single-class test draws
            assert hashlib.sha256((out / "failures.csv").read_bytes()).hexdigest() == (
                "873b352ddfe3a511fbdf3400f4f42359c0f0fea1a737639a94cac7c0fc41d01c")


class TestAnalyzeCommand:
    def test_fit_reports_for_all_scenarios_and_responses(self, experiment_dir):
        tmp_path, _ = experiment_dir
        for scenario in ("balanced", "consistent", "reverse"):
            for response in ("mean_auc", "log_sd"):
                doc = json.loads(
                    (tmp_path / "out" / f"fit_{response}_{scenario}.json").read_text())
                assert len(doc["terms"]) == 13
                assert len(doc["implied_effects"]) == 2
                assert doc["scenario"] == scenario
                assert doc["n"] == 28
                assert doc["df"] == 15

    def test_reads_the_outcomes_simulate_wrote_for_six_classes(self, tmp_path):
        # six 6-decimal parts of the centroid sum to 1.000002
        doc = small_config_doc(n_per_class=100)
        doc["design"]["m"] = 6
        doc["scenarios"] = ["balanced"]
        for pool in doc["pools"].values():
            pool["synthetic"].update(m=6, d=6)
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_OK
        assert main(["analyze", "--config", str(config_path)]) == EXIT_OK

    def test_missing_outcomes_is_io_error(self, tmp_path):
        config_path = write_config(tmp_path)
        assert main(["analyze", "--config", str(config_path)]) == EXIT_IO

    def test_analyze_rerun_byte_identical(self, experiment_dir):
        tmp_path, config_path = experiment_dir
        target = tmp_path / "out" / "fit_mean_auc_balanced.json"
        first = target.read_bytes()
        assert main(["analyze", "--config", str(config_path)]) == EXIT_OK
        assert target.read_bytes() == first


class TestShapAndContour:
    def test_shap_reports(self, experiment_dir):
        tmp_path, config_path = experiment_dir
        assert main(["shap", "--config", str(config_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "shap_mean_auc_balanced.json").read_text())
        importances = [e["importance"] for e in doc["importances"]]
        assert len(importances) == 13
        assert importances == sorted(importances, reverse=True)
        phi_lines = (tmp_path / "out" / "shap_phi_mean_auc_balanced.csv") \
            .read_text().splitlines()
        assert len(phi_lines) == 1 + 28

    def test_contour_outputs(self, experiment_dir):
        tmp_path, config_path = experiment_dir
        assert main(["contour", "--config", str(config_path)]) == EXIT_OK
        svgs = sorted((tmp_path / "out").glob("contour_*.svg"))
        grids = sorted((tmp_path / "out").glob("grid_*.csv"))
        # 2 responses x 3 scenarios x 4 covariate combinations
        assert len(svgs) == 24
        assert len(grids) == 24
        root = ET.fromstring(svgs[0].read_text())
        assert root.tag.endswith("svg")
        names = {p.name for p in svgs}
        assert "contour_mean_auc_balanced_z10.svg" in names


class TestContourLatticeParts:
    def test_one_stage_builds_each_part_once(self, experiment_dir, monkeypatch, capsys):
        tmp_path, config_path = experiment_dir
        calls = spy_on_lattice_parts(monkeypatch)
        out = tmp_path / "parts"
        shutil.copytree(tmp_path / "out", out)
        assert main(["contour", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
        # 24 surfaces on one q=100 lattice
        assert len(list(out.glob("grid_*.csv"))) == len(list(out.glob("contour_*.svg"))) == 24
        assert sorted(calls) == ["_micro_triangles", "_twin_edges", "csv_template"]

    def test_five_classes_build_the_csv_template_once(self, tmp_path, monkeypatch):
        calls = spy_on_lattice_parts(monkeypatch)
        doc = small_config_doc()
        doc["design"].update(m=5, covariate_levels=[[1, 0], [1, 0], [1, 0]])
        config = replace(parse_experiment_config(doc, tmp_path), output_dir=tmp_path)
        fits = [(scenario, response, make_fit(np.full(33, 0.5), m=5, h=3))
                for scenario in config.scenarios for response in RESPONSES]
        cli.write_contours(config, fits)
        assert len(list(tmp_path.glob("grid_*.csv"))) == 48
        assert not list(tmp_path.glob("*.svg"))
        assert calls == ["csv_template"]


class TestEmptyContourLattice:
    def test_exits_config_before_writing(self, tmp_path, capsys):
        # the design accepts 0.333 < 1/3, but 3 parts of at least 34/100 exceed q=100
        doc = small_config_doc(n_per_class=100)
        doc["design"]["min_prop"] = 0.333
        doc["scenarios"] = ["balanced"]
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_OK
        assert main(["analyze", "--config", str(config_path)]) == EXIT_OK
        before = sorted(p.name for p in (tmp_path / "out").iterdir())
        capsys.readouterr()
        assert main(["contour", "--config", str(config_path)]) == EXIT_CONFIG
        assert "no lattice point of q=100 has all m=3 parts at or above " \
            "min_prop=0.333" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == before

    def test_coarse_lattice_beyond_three_classes(self, tmp_path, capsys):
        # the m != 3 lattice has q=20; the lattice is built before outcomes are read
        doc = small_config_doc()
        doc["design"].update(m=7, min_prop=0.14)
        config_path = write_config(tmp_path, doc)
        assert main(["contour", "--config", str(config_path)]) == EXIT_CONFIG
        assert "q=20 has all m=7 parts at or above min_prop=0.14" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestContourFileNames:
    @pytest.mark.parametrize("levels,code", [
        ([[1, 11], [1, 11]], EXIT_CONFIG),
        # the c7 and m5 level sets pass the name check and reach the first report
        ([[1, 0], [1, 0]], EXIT_IO),
        ([[1, 0], [1, 0], [1, 0]], EXIT_IO)])
    def test_colliding_file_names_exit_config(self, tmp_path, capsys, levels, code):
        doc = small_config_doc()
        doc["design"]["covariate_levels"] = levels
        for section, section_levels in zip(("classifiers", "pools"), levels):
            entries = doc[section]
            doc[section] = {f"{level:g}": entries.get(f"{level:g}", entries["0"])
                            for level in section_levels}
        config_path = write_config(tmp_path, doc)
        assert main(["contour", "--config", str(config_path)]) == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert err == ("mixrobust: error: covariate levels (1.0, 11.0) and (11.0, 1.0) "
                           "would both write contour files tagged z111\n")
        else:
            assert err.startswith("mixrobust: error: cannot read "
                                  f"{tmp_path / 'out' / 'fit_mean_auc_balanced.json'}: ")
        assert not (tmp_path / "out").exists()


class TestOutcomesFromAnotherDesign:
    @pytest.mark.parametrize("command", ["analyze", "shap"])
    @pytest.mark.parametrize("change,shape", [
        ({"covariate_levels": [[1, 0], [1, 0], [1, 0]]}, "m=3 and h=3"),
        ({"m": 4}, "m=4 and h=2")])
    def test_exits_io_before_any_fit(self, experiment_dir, tmp_path, capsys, command,
                                     change, shape):
        source, _ = experiment_dir
        path = tmp_path / "out" / "outcomes.csv"
        path.parent.mkdir()
        shutil.copy(source / "out" / "outcomes.csv", path)
        doc = small_config_doc()
        doc["design"].update(change)
        config_path = write_config(tmp_path, doc)
        assert main([command, "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"mixrobust: error: {path} holds outcomes of m=3 mixture parts and h=2 "
            f"covariates, but the design has {shape}; run `simulate` or `run` again\n")
        assert [p.name for p in path.parent.iterdir()] == ["outcomes.csv"]


class TestNonFiniteOutcomes:
    @pytest.mark.parametrize("command", ["analyze", "shap"])
    def test_nan_response_exits_numeric(self, experiment_dir, tmp_path, capsys, command):
        source, _ = experiment_dir
        lines = (source / "out" / "outcomes.csv").read_text().splitlines()
        column = lines[0].split(",").index("mean_auc")
        fields = lines[3].split(",")
        fields[column] = "nan"
        lines[3] = ",".join(fields)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "outcomes.csv").write_text("\n".join(lines) + "\n")
        config_path = write_config(tmp_path)
        assert main([command, "--config", str(config_path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "non-finite y in row" in err


def write_rank_deficient_consistent(source, path):
    """The outcomes at source without the consistent scenario's binary blends,
    so that scenario's pairwise columns are not identified."""
    lines = source.read_text().splitlines()
    header = lines[0].split(",")
    parts = [header.index(f"x{j}") for j in (1, 2, 3)]

    def binary_blend(line):
        fields = line.split(",")
        return (fields[2] == "consistent"
                and sum(float(fields[i]) > 0.1 for i in parts) == 2)
    kept = [line for line in lines if not binary_blend(line)]
    assert len(lines) - len(kept) == 12
    path.parent.mkdir()
    path.write_text("\n".join(kept) + "\n")


class TestFitErrorsNameTheFit:
    def test_rank_deficient_fit_names_scenario_and_response(self, experiment_dir,
                                                            tmp_path, capsys):
        source, _ = experiment_dir
        write_rank_deficient_consistent(source / "out" / "outcomes.csv",
                                        tmp_path / "out" / "outcomes.csv")
        config_path = write_config(tmp_path)
        assert main(["analyze", "--config", str(config_path)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(
            "mixrobust: error: scenario consistent, response mean_auc: model matrix is "
            "rank deficient; dependent columns: ")
        # the balanced fits were written before the failing one
        assert (tmp_path / "out" / "fit_log_sd_balanced.json").exists()
        assert main(["report", "--config", str(config_path)]) == EXIT_IO
        missing = tmp_path / "out" / "fit_mean_auc_consistent.json"
        err = capsys.readouterr().err
        assert err.startswith(f"mixrobust: error: cannot read {missing}: ")
        assert err.endswith("; `analyze` writes it and stops at the first fit that fails\n")


    # the balanced scenario's files: a report per fit, two shap files per fit,
    # and a grid and an SVG per fit and covariate combination
    @pytest.mark.parametrize("command,count", [("analyze", 2), ("shap", 4), ("contour", 16)])
    def test_stage_stops_at_the_second_scenarios_factorization(self, experiment_dir,
                                                               tmp_path, capsys,
                                                               command, count):
        source, _ = experiment_dir
        out = tmp_path / "out"
        write_rank_deficient_consistent(source / "out" / "outcomes.csv",
                                        out / "outcomes.csv")
        config_path = write_config(tmp_path)
        assert main(["analyze", "--config", str(config_path)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(
            "mixrobust: error: scenario consistent, response mean_auc: model matrix is "
            "rank deficient; dependent columns: ")
        inputs = {"outcomes.csv"}
        if command != "analyze":
            # the stage reads the fits `analyze` wrote, up to the first it did not
            inputs |= {"fit_mean_auc_balanced.json", "fit_log_sd_balanced.json"}
            assert main([command, "--config", str(config_path)]) == EXIT_IO
            assert capsys.readouterr().err.startswith(
                f"mixrobust: error: cannot read {out / 'fit_mean_auc_consistent.json'}: ")
        written = sorted(p.name for p in out.iterdir() if p.name not in inputs)
        assert len(written) == count
        assert all("_balanced" in name for name in written), written
        assert {response for response in RESPONSES
                if any(response in name for name in written)} == set(RESPONSES)


def count_calls(monkeypatch, *targets):
    """{name: calls} for each (owner, name) in targets, each counted from here on."""
    calls = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call
    for owner, name in targets:
        calls[name] = 0
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


class TestOneFactorizationPerScenario:
    @pytest.mark.parametrize("scenario,scenarios", [(None, 3), ("reverse", 1)])
    @pytest.mark.parametrize("command", ["analyze", "shap", "contour"])
    def test_each_fit_stage_factors_each_scenario_once(self, experiment_dir, tmp_path,
                                                       monkeypatch, command, scenario,
                                                       scenarios):
        # only `analyze` factors; shap and contour read the fits it reported
        source, _ = experiment_dir
        shutil.copytree(source / "out", tmp_path / "out")
        config_path = write_config(tmp_path)
        calls = count_calls(monkeypatch, (np.linalg, "qr"), (ternary, "predict_rows"))
        argv = [command, "--config", str(config_path)]
        if scenario is not None:
            argv += ["--scenario", scenario]
        assert main(argv) == EXIT_OK
        fits = scenarios * len(RESPONSES)
        assert calls == {"qr": scenarios if command == "analyze" else 0,
                         "predict_rows": fits if command == "contour" else 0}

    def test_a_pass_fits_each_scenario_once_from_one_outcome_read(self, tmp_path,
                                                                  monkeypatch):
        config_path = shaped_experiment(tmp_path, "c7")
        calls = count_calls(monkeypatch, (np.linalg, "qr"), (cli, "read_outcome_table"))
        for command in ("analyze", "shap", "contour"):
            assert main([command, "--config", str(config_path)]) == EXIT_OK
        # one read and a QR per scenario in `analyze`, one read in `shap`
        assert calls == {"qr": 3, "read_outcome_table": 2}


class TestShapAndContourReadTheReports:
    @pytest.fixture
    def copied(self, experiment_dir, tmp_path):
        source, _ = experiment_dir
        shutil.copytree(source / "out", tmp_path / "out")
        return tmp_path / "out", write_config(tmp_path)

    def test_contour_without_reports_exits_io_naming_the_first(self, experiment_dir,
                                                                tmp_path, capsys):
        source, _ = experiment_dir
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(source / "out" / "outcomes.csv", out / "outcomes.csv")
        config_path = write_config(tmp_path)
        assert main(["contour", "--config", str(config_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(
            f"mixrobust: error: cannot read {out / 'fit_mean_auc_balanced.json'}: ")
        assert err.endswith("; `analyze` writes it and stops at the first fit that fails\n")
        assert [p.name for p in out.iterdir()] == ["outcomes.csv"]

    @pytest.mark.parametrize("change,shape", [
        ({"covariate_levels": [[1, 0], [1, 0], [1, 0]]}, "m=3, h=3"),
        ({"m": 4}, "m=4, h=2")])
    def test_contour_on_reports_of_another_design_exits_io_naming_it(
            self, copied, capsys, change, shape):
        out, config_path = copied
        # without the run's metadata, whose check would name the design first
        (out / "run_metadata.json").unlink()
        doc = small_config_doc()
        doc["design"].update(change)
        config_path.write_text(json.dumps(doc))
        before = sorted(p.name for p in out.iterdir())
        assert main(["contour", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(
            f"mixrobust: error: malformed report file {out / 'fit_mean_auc_balanced.json'}: "
            f"ModelError(\"terms are not the {shape} design's ")
        assert sorted(p.name for p in out.iterdir()) == before

    def test_contour_after_a_new_simulate_exits_io(self, copied, capsys):
        out, config_path = copied
        assert main(["shap", "--config", str(config_path)]) == EXIT_OK
        assert main(["simulate", "--config", str(config_path), "--jobs", "1",
                     "--seed", "5"]) == EXIT_OK
        # the old reports were fitted to the seed-99 outcomes, which are gone
        assert not list(out.glob("fit_*.json")) and not list(out.glob("shap_*.json"))
        capsys.readouterr()
        assert main(["contour", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(
            f"mixrobust: error: cannot read {out / 'fit_mean_auc_balanced.json'}: ")

    def test_shap_on_a_report_of_other_rows_exits_io_naming_both(self, copied, capsys):
        out, config_path = copied
        path = out / "fit_log_sd_consistent.json"
        doc = json.loads(path.read_text())
        doc["n"] = 27
        path.write_text(json.dumps(doc))
        assert main(["shap", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"mixrobust: error: {path} reports a fit of n=27 rows, but "
            f"{out / 'outcomes.csv'} holds 28 of scenario consistent; run `analyze` again\n")

    def test_contour_needs_no_outcomes(self, copied, tmp_path):
        out, config_path = copied
        bare = tmp_path / "bare"
        shutil.copytree(out, bare)
        (bare / "outcomes.csv").unlink()
        outputs = {}
        for run in (out, bare):
            assert main(["contour", "--config", str(config_path), "--out", str(run)]) == EXIT_OK
            outputs[run] = {p.name: p.read_bytes() for p in sorted(run.iterdir())
                            if p.suffix == ".svg" or p.name.startswith("grid_")}
        assert len(outputs[out]) == 48
        assert outputs[bare] == outputs[out]


def relabel_pool_level(doc):
    """The config doc with its pool covariate's level 0 relabelled 2."""
    doc["design"]["covariate_levels"][1] = [1, 2]
    doc["pools"]["2"] = doc["pools"].pop("0")


class TestOutcomesFromAnotherConfig:
    @pytest.fixture
    def copied(self, experiment_dir, tmp_path):
        source, _ = experiment_dir
        shutil.copytree(source / "out", tmp_path / "out")
        return tmp_path / "out"

    @pytest.mark.parametrize("command", ["analyze", "shap", "contour"])
    @pytest.mark.parametrize("edit,key,was,now", [
        (lambda doc: doc["design"].update(replicates=2), "design.replicates", "1", "2"),
        (lambda doc: doc["design"].update(min_prop=0.02), "design.min_prop", "0.01", "0.02"),
        (relabel_pool_level, "design.covariate_levels[1][1]", "0.0", "2.0"),
        (lambda doc: doc["sampling"].update(train_frac=0.15), "sampling.train_frac",
         "0.1", "0.15"),
        (lambda doc: doc["classifiers"].update({"1": {"kind": "boosted_stumps"}}),
         "classifiers.1.kind", '"logistic"', '"boosted_stumps"'),
        (lambda doc: doc["classifiers"]["0"]["hyper"].update(rounds=11),
         "classifiers.0.hyper.rounds", "10.0", "11.0"),
    ], ids=["replicates", "min_prop", "covariate_level", "train_frac", "kind", "hyper"])
    def test_edited_config_exits_io_naming_the_key(self, copied, capsys, command, edit,
                                                  key, was, now):
        doc = small_config_doc()
        edit(doc)
        config_path = write_config(copied.parent, doc)
        before = {p.name: p.read_bytes() for p in copied.iterdir()}
        assert main([command, "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"mixrobust: error: {copied / 'run_metadata.json'} records {key} = {was}, "
            f"but the config has {now}; run `simulate` or `run` again\n")
        assert {p.name: p.read_bytes() for p in copied.iterdir()} == before

    @pytest.mark.parametrize("command", ["analyze", "shap", "contour"])
    @pytest.mark.parametrize("case", ["unchanged", "seed", "config_seed", "scenario",
                                      "no_metadata"])
    def test_same_settings_pass(self, copied, command, case):
        doc = small_config_doc(master_seed=5 if case == "config_seed" else 99)
        argv = [command, "--config", str(write_config(copied.parent, doc))]
        argv += {"seed": ["--seed", "5"], "scenario": ["--scenario", "reverse"]}.get(case, [])
        if case == "no_metadata":
            (copied / "run_metadata.json").unlink()
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("content,reason", [
        ("{", "Expecting property name"), (None, "Is a directory")])
    def test_unreadable_metadata_exits_io_naming_it(self, copied, capsys, content, reason):
        path = copied / "run_metadata.json"
        path.unlink()
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        assert main(["analyze", "--config", str(write_config(copied.parent))]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"mixrobust: error: cannot read {path}: ") and reason in err

    def test_outcome_checks_come_first(self, copied, capsys):
        doc = small_config_doc()
        doc["design"]["m"] = 4
        config_path = write_config(copied.parent, doc)
        assert main(["shap", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"mixrobust: error: {copied / 'outcomes.csv'} holds outcomes of m=3 mixture "
            "parts and h=2 covariates, but the design has m=4 and h=2; run `simulate` "
            "or `run` again\n")


def all_reverse_runs_fail_doc():
    """A config under which every reverse run fails: its tiny pools hold too
    few rows of a class for some test draws."""
    doc = small_config_doc(n_per_class=60)
    doc["classifiers"] = {"1": {"kind": "logistic", "hyper": {"epochs": 3}},
                          "0": {"kind": "boosted_stumps", "hyper": {"rounds": 2}}}
    doc["sampling"] = {"train_frac": 0.3, "test_frac": 0.2}
    return doc


class TestScenarioWithoutOutcomes:
    @pytest.fixture(scope="class")
    def failed_dir(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("failed")
        config_path = write_config(tmp_path, all_reverse_runs_fail_doc())
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_NUMERIC
        failures = (tmp_path / "out" / "failures.csv").read_text().splitlines()
        assert sum(",reverse," in line for line in failures) == 28
        return tmp_path / "out"

    @pytest.mark.parametrize("command", ["analyze", "shap"])
    def test_every_run_failed_exits_numeric_naming_failures(self, failed_dir, tmp_path,
                                                            capsys, command):
        shutil.copytree(failed_dir, tmp_path / "out")
        config_path = write_config(tmp_path, all_reverse_runs_fail_doc())
        capsys.readouterr()
        assert main([command, "--config", str(config_path)]) == EXIT_NUMERIC
        failures = tmp_path / "out" / "failures.csv"
        assert capsys.readouterr().err == (
            f"mixrobust: error: every run of scenario reverse failed; see {failures}\n")

    def test_malformed_failures_file_exits_io_naming_it(self, failed_dir, tmp_path,
                                                         capsys):
        shutil.copytree(failed_dir, tmp_path / "out")
        failures = tmp_path / "out" / "failures.csv"
        lines = failures.read_text().splitlines()
        failures.write_text("\n".join(lines[:2] + ["7,1,sideways,boom"]) + "\n")
        config_path = write_config(tmp_path, all_reverse_runs_fail_doc())
        capsys.readouterr()
        assert main(["analyze", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(
            f"mixrobust: error: {failures}:3: unknown scenario 'sideways'")

    def test_unreadable_failures_file_exits_io_naming_it(self, failed_dir, tmp_path,
                                                           capsys):
        shutil.copytree(failed_dir, tmp_path / "out")
        failures = tmp_path / "out" / "failures.csv"
        failures.unlink()
        failures.mkdir()
        config_path = write_config(tmp_path, all_reverse_runs_fail_doc())
        capsys.readouterr()
        assert main(["analyze", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(
            f"mixrobust: error: cannot read {failures}: ")

    def test_scenario_never_run_keeps_io_exit(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1",
                     "--scenario", "balanced"]) == EXIT_OK
        assert not (tmp_path / "out" / "failures.csv").exists()
        capsys.readouterr()
        assert main(["analyze", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err == (
            "mixrobust: error: outcomes file has no rows for scenario consistent\n")


class TestMalformedOutcomes:
    @pytest.mark.parametrize("column,value,match", [
        ("auc_2", "high", "could not convert string to float: 'high'"),
        ("scenario", "sideways", "unknown scenario 'sideways'"),
        (None, None, "expected 14 fields, got 6"),
    ])
    def test_bad_row_exits_io_naming_the_line(self, experiment_dir, tmp_path, capsys,
                                              column, value, match):
        source, _ = experiment_dir
        lines = (source / "out" / "outcomes.csv").read_text().splitlines()
        fields = lines[3].split(",")
        if column is None:
            del fields[6:]
        else:
            fields[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(fields)
        path = tmp_path / "out" / "outcomes.csv"
        path.parent.mkdir()
        path.write_text("\n".join(lines) + "\n")
        config_path = write_config(tmp_path)
        assert main(["analyze", "--config", str(config_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{path}:4: " in err and match in err


class TestReportCommand:
    def test_attribution_block_follows_shap(self, experiment_dir, tmp_path, capsys):
        out, config_path = self._copied_outputs(experiment_dir, tmp_path)
        for path in out.glob("shap_*"):
            path.unlink()
        assert main(["report", "--config", str(config_path)]) == EXIT_OK
        assert "Attribution" not in (out / "report.txt").read_text()
        assert main(["shap", "--config", str(config_path)]) == EXIT_OK
        assert main(["report", "--config", str(config_path)]) == EXIT_OK
        text = (out / "report.txt").read_text()
        assert text.count("Attribution (mean AUC), descending:\n") == 3
        for scenario in ("balanced", "consistent", "reverse"):
            doc = json.loads((out / f"shap_mean_auc_{scenario}.json").read_text())
            block = "".join(f"  {e['label']:<8}{e['importance']:>10.4f}\n"
                            for e in doc["importances"])
            assert f"Attribution (mean AUC), descending:\n{block}" in text

    def test_report_text(self, experiment_dir, capsys):
        tmp_path, config_path = experiment_dir
        assert main(["report", "--config", str(config_path)]) == EXIT_OK
        text = (tmp_path / "out" / "report.txt").read_text()
        for scenario in ("Balanced", "Consistent", "Reverse"):
            assert f"== {scenario} scenario" in text
        assert "Implied effect" in text
        assert "Mean AUC" in text and "Log SD" in text
        assert "z1" in text and "z2" in text

    def test_missing_fits_is_io_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["report", "--config", str(config_path)]) == EXIT_IO
        assert capsys.readouterr().err.endswith(
            "; `analyze` writes it and stops at the first fit that fails\n")

    def _copied_outputs(self, experiment_dir, tmp_path):
        source, _ = experiment_dir
        shutil.copytree(source / "out", tmp_path / "out")
        return tmp_path / "out", write_config(tmp_path)

    def test_truncated_fit_report_exits_io_naming_it(self, experiment_dir, tmp_path,
                                                       capsys):
        out, config_path = self._copied_outputs(experiment_dir, tmp_path)
        path = out / "fit_log_sd_consistent.json"
        path.write_text(path.read_text()[:100])
        assert main(["report", "--config", str(config_path)]) == EXIT_IO
        assert f"cannot read {path}: " in capsys.readouterr().err

    def test_shap_entry_without_importance_exits_io_naming_it(self, experiment_dir,
                                                               tmp_path, capsys):
        out, config_path = self._copied_outputs(experiment_dir, tmp_path)
        path = out / "shap_mean_auc_balanced.json"
        path.write_text(json.dumps({"importances": [{"label": "x1"}]}))
        assert main(["report", "--config", str(config_path)]) == EXIT_IO
        assert f"malformed report file {path}: KeyError('importance')" in (
            capsys.readouterr().err)


def _bad_value(keys, value, section, id, message=""):
    return pytest.param(keys, value, section, message, id=id)


# one malformed value per row: (path of keys into the config, value, section,
# start of the message); the top-level section is the config file itself
BAD_CONFIG_VALUES = [
    _bad_value(("pools", "1", "synthetic", "m"), "x", "pools[1]", "pool-m-string"),
    _bad_value(("pools", "1", "synthetic", "m"), 1, "pools[1]", "pool-m-1"),
    _bad_value(("pools", "1", "synthetic", "m"), 3.7, "pools[1]", "pool-m-fraction"),
    _bad_value(("pools", "1", "synthetic", "d"), 2, "pools[1]", "pool-d-below-m"),
    _bad_value(("pools", "1", "synthetic", "noise_scale"), -1, "pools[1]",
               "noise-scale-negative"),
    _bad_value(("pools", "1", "synthetic", "class_means"), [[1, 0, 0], [0, 1, 0]],
               "pools[1]", "class-means-misshaped"),
    _bad_value(("pools", "1", "synthetic", "n_per_class"), 99.9, "pools[1]",
               "n-per-class-fraction"),
    _bad_value(("pools", "1"), 5, "pools[1]", "pool-not-an-object"),
    _bad_value(("pools", "1"), {"csv": "missing.csv"}, "pools[1]", "pool-csv-missing"),
    _bad_value(("sampling", "train_frac"), "abc", "sampling", "train-frac-string"),
    _bad_value(("sampling", "train_frac"), float("nan"), "sampling", "train-frac-nan"),
    _bad_value(("sampling", "test_frac"), float("inf"), "sampling", "test-frac-inf"),
    _bad_value(("design", "m"), "x", "design", "design-m-string"),
    _bad_value(("design", "m"), 3.7, "design", "design-m-fraction"),
    _bad_value(("design", "replicates"), 2.5, "design", "replicates-fraction"),
    _bad_value(("design", "replicates"), True, "design", "replicates-bool"),
    _bad_value(("master_seed",), 1.5, "design", "master-seed-fraction"),
    _bad_value(("design", "covariate_levels"), 5, "design", "covariate-levels-number"),
    _bad_value(("scenarios",), 5, "scenarios", "scenarios-number",
               "expected a list of scenario names, got 5"),
    # a string is not read letter by letter
    _bad_value(("scenarios",), "balanced", "scenarios", "scenarios-string",
               "expected a list of scenario names, got 'balanced'"),
    _bad_value(("design",), 5, "design", "design-number", "expected an object, got 5"),
    _bad_value(("sampling",), 5, "sampling", "sampling-number", "expected an object, got 5"),
    # a misspelled key is refused in every section, not left to its default
    _bad_value(("masterseed",), 4, "config.json", "top-level-unknown-key",
               "unknown key 'masterseed'; allowed: design, sampling, classifiers, pools, "
               "scenarios, output_dir, master_seed"),
    _bad_value(("design", "replicate"), 5, "design", "design-unknown-key",
               "unknown key 'replicate'; allowed: m, covariate_levels, min_prop, replicates"),
    _bad_value(("sampling", "test_fraction"), 0.5, "sampling", "sampling-unknown-key",
               "unknown key 'test_fraction'; allowed: train_frac, test_frac"),
    _bad_value(("classifiers", "1", "epochs"), 5, "classifiers[1]", "classifier-unknown-key",
               "unknown key 'epochs'; allowed: kind, hyper, command"),
    _bad_value(("pools", "1", "seed"), 5, "pools[1]", "pool-unknown-key",
               "unknown key 'seed'; allowed: synthetic, csv"),
    _bad_value(("pools", "1", "synthetic", "noise_scal"), 9.0, "pools[1]",
               "synthetic-unknown-key", "unknown key 'noise_scal'; allowed: m, d, "
               "n_per_class, class_means, separation, noise_scale, separability_boost, seed"),
    _bad_value(("pools", "1", "csv"), "nope.csv", "pools[1]", "pool-both-sources",
               "pool takes either a 'synthetic' or a 'csv' entry, not both"),
    # a repeat would run or fit the same cells twice
    _bad_value(("scenarios",), ["balanced", "Balanced"], "scenarios", "scenario-repeated",
               "scenario balanced is listed twice"),
    _bad_value(("design", "covariate_levels"), [[1, 1, 0], [1, 0]], "design",
               "covariate-level-repeated", "covariate_levels: z1 lists level 1 twice"),
    _bad_value(("design", "covariate_levels"), [[1, 0], [0.0, 1, -0.0]], "design",
               "covariate-level-signed-zero", "covariate_levels: z2 lists level -0 twice"),
    # a third factor maps to no classifier or pool, so nothing else would refuse it
    _bad_value(("design", "covariate_levels"), [[1, 0], [1, 0], [float("nan"), 0]], "design",
               "covariate-level-nan", "covariate_levels: z3 levels [nan, 0.0] must be finite"),
    _bad_value(("classifiers", "1.0"), {"kind": "logistic"}, "classifiers",
               "classifier-level-repeated", "level 1 is listed twice"),
    # float keys take real numbers only, as `hyper` and the integer keys do
    _bad_value(("design", "min_prop"), "0.01", "design", "min-prop-string"),
    _bad_value(("design", "covariate_levels"), [["1", "0"], [1, 0]], "design",
               "covariate-levels-strings"),
    _bad_value(("sampling", "train_frac"), "0.1", "sampling", "train-frac-numeric-string"),
    _bad_value(("sampling", "test_frac"), True, "sampling", "test-frac-bool"),
    _bad_value(("pools", "1", "synthetic", "separation"), "2.5", "pools[1]",
               "separation-string"),
    _bad_value(("pools", "1", "synthetic", "noise_scale"), True, "pools[1]",
               "noise-scale-bool"),
    _bad_value(("pools", "1", "synthetic", "class_means"),
               [["2.5", 0, 0], [0, 2.5, 0], [0, 0, 2.5]], "pools[1]", "class-means-string"),
    _bad_value(("pools", "1", "synthetic", "separability_boost"), [1, True, 1], "pools[1]",
               "separability-boost-bool"),
    # only null and [] mean no boost; other falsy values are not a list
    _bad_value(("pools", "1", "synthetic", "separability_boost"), False, "pools[1]",
               "separability-boost-false"),
    _bad_value(("pools", "1", "synthetic", "separability_boost"), 0, "pools[1]",
               "separability-boost-zero"),
    _bad_value(("pools", "1", "synthetic", "separability_boost"), "", "pools[1]",
               "separability-boost-empty-string"),
    _bad_value(("pools", "1", "synthetic", "separability_boost"), {}, "pools[1]",
               "separability-boost-empty-object"),
    # the means come from one source, never silently from the first of two
    _bad_value(("pools", "1", "synthetic", "class_means"),
               [[2.5, 0, 0], [0, 2.5, 0], [0, 0, 2.5]], "pools[1]", "synthetic-both-means",
               "give either 'class_means' or 'separation', not both"),
    # an entry for a level the design lacks is read by no run
    _bad_value(("pools", "5"), {"synthetic": {"m": 3, "d": 3, "n_per_class": 100}}, "pools",
               "pool-level-not-in-design", "level 5 is not a z2 level (levels 1, 0)"),
    _bad_value(("classifiers", "0.5"), {"kind": "logistic"}, "classifiers",
               "classifier-level-not-in-design", "level 0.5 is not a z1 level (levels 1, 0)"),
]


class TestConfigErrorBoundary:
    @pytest.mark.parametrize("keys,value,section,message", BAD_CONFIG_VALUES)
    def test_bad_value_exits_config_naming_section(self, tmp_path, capsys, keys, value,
                                                   section, message):
        doc = small_config_doc(n_per_class=100)
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        out = tmp_path / "run"
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--jobs", "1"]) == EXIT_CONFIG
        assert f"{section}: {message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_malformed_pool_csv_exits_config(self, tmp_path, capsys):
        (tmp_path / "pool.csv").write_text("label,f1,f2,f3\n1,0.5,x,0.1\n")
        doc = small_config_doc()
        doc["pools"]["1"] = {"csv": "pool.csv"}
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "pools[1]: " in err and "pool.csv:2: could not convert string to float" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_pool_csv_exits_config(self, tmp_path, capsys, value):
        rows = [f"{j},{j}.5,0.25,{value if i == 1 and j == 2 else 0.5}"
                for i in range(2) for j in (1, 2, 3)]
        (tmp_path / "pool.csv").write_text("label,f1,f2,f3\n" + "\n".join(rows) + "\n")
        doc = small_config_doc()
        doc["pools"]["1"] = {"csv": "pool.csv"}
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "pools[1]: " in err and "pool.csv:6: features must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_exits_config(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["design", "--config", str(path)]) == EXIT_CONFIG


class TestExitCodes:
    def test_missing_subcommand_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand_usage(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == EXIT_USAGE

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["design", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["design", "--config", str(path)]) == EXIT_CONFIG

    def test_invalid_scenario_flag_usage(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert main(["design", "--config", str(config_path),
                     "--scenario", "sideways"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_help_lists_stages_in_readme_order(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        assert main(["--help"]) == EXIT_OK
        listed = re.findall(r"^    (\w+) +(.+)$", capsys.readouterr().out, re.MULTILINE)
        assert listed == STAGE_HELP
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert re.findall(r"^mixrobust (\w+) +--config", readme, re.MULTILINE) == [
            name for name, _ in STAGE_HELP]

    @pytest.mark.parametrize("stage", [name for name, _ in STAGE_HELP])
    def test_stage_help_exits_zero(self, capsys, stage):
        assert main([stage, "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"usage: mixrobust {stage} ") and "--config CONFIG" in out

    @pytest.mark.parametrize("under", [False, True], ids=["file", "file-sub"])
    @pytest.mark.parametrize("command", ["design", "simulate", "analyze"])
    def test_output_path_through_a_file_exits_io_naming_it(self, tmp_path, capsys,
                                                          command, under):
        config_path = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        if under:
            out = out / "sub"
        assert main([command, "--config", str(config_path), "--out", str(out),
                     "--jobs", "1"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("mixrobust: error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_unwritable_fit_report_exits_io_naming_it(self, experiment_dir, tmp_path,
                                                      capsys):
        source, _ = experiment_dir
        config_path = write_config(tmp_path)
        shutil.copytree(source / "out", tmp_path / "out")
        target = tmp_path / "out" / "fit_log_sd_balanced.json"
        target.unlink()
        target.mkdir()
        assert main(["analyze", "--config", str(config_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("mixrobust: error: ") and err.count("\n") == 1
        assert f"cannot write {target}: " in err
        assert sorted(p.name for p in (tmp_path / "out").glob("*.tmp")) == []


class TestExitCodeOfErrorSubclass:
    @pytest.mark.parametrize("base,code", [(ConfigError, EXIT_CONFIG),
                                           (MetricsError, EXIT_IO),
                                           (ModelError, EXIT_NUMERIC)])
    def test_subclass_exits_with_its_base_class_code(self, tmp_path, capsys, monkeypatch,
                                                     base, code):
        class Sub(base):
            pass

        def stage(config, args):
            raise Sub("a subclass error")
        monkeypatch.setitem(cli._STAGES, "report", ("", stage))
        assert main(["report", "--config", str(write_config(tmp_path))]) == code
        assert capsys.readouterr().err == "mixrobust: error: a subclass error\n"


class TestRunCommand:
    def test_external_protocol_end_to_end(self, tmp_path):
        runner = tmp_path / "runner.py"
        runner.write_text(
            "import csv, sys\n"
            "from pathlib import Path\n"
            "workdir = Path(sys.argv[1])\n"
            "with open(workdir / 'train.csv') as fh:\n"
            "    m = max(int(r[0]) for r in list(csv.reader(fh))[1:])\n"
            "with open(workdir / 'test.csv') as fh:\n"
            "    rows = list(csv.reader(fh))[1:]\n"
            "with open(workdir / 'scores.csv', 'w', newline='') as fh:\n"
            "    w = csv.writer(fh)\n"
            "    w.writerow([f'score_{j}' for j in range(1, m + 1)])\n"
            "    for i, _ in enumerate(rows):\n"
            "        p = 0.5 + 0.4 * ((i % 7) / 6.0 - 0.5)\n"
            "        rest = (1 - p) / (m - 1)\n"
            "        w.writerow([p] + [rest] * (m - 1))\n")
        doc = small_config_doc(replicates=1)
        doc["scenarios"] = ["balanced"]
        doc["classifiers"]["1"] = {"kind": "external",
                                   "command": ["python3", str(runner)]}
        config_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == EXIT_OK
        lines = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 1 + 28

    def test_missing_runner_fails_each_run_by_name(self, tmp_path):
        doc = small_config_doc(replicates=1)
        doc["scenarios"] = ["balanced"]
        doc["classifiers"]["1"] = {"kind": "external", "command": ["no-such-runner-xyz"]}
        config_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == EXIT_NUMERIC
        failures = (tmp_path / "out" / "failures.csv").read_text().splitlines()
        assert len(failures) == 1 + 14
        assert all("external runner ['no-such-runner-xyz'] could not start" in line
                   for line in failures[1:])
        lines = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 1 + 14

    def test_clean_rerun_removes_stale_failures(self, tmp_path, capsys):
        doc = small_config_doc(replicates=1)
        doc["scenarios"] = ["balanced"]
        clean_path = write_config(tmp_path, doc, name="clean.json")
        doc["classifiers"]["1"] = {"kind": "external", "command": ["no-such-runner-xyz"]}
        failing_path = write_config(tmp_path, doc, name="failing.json")
        failures = tmp_path / "out" / "failures.csv"
        assert main(["run", "--config", str(failing_path), "--jobs", "1"]) == EXIT_NUMERIC
        stale = failures.read_bytes()
        # a stage stopped before its runs leaves the previous pair of files
        assert main(["simulate", "--config", str(failing_path)]) == EXIT_CONFIG
        assert failures.read_bytes() == stale
        assert main(["simulate", "--config", str(clean_path), "--jobs", "1"]) == EXIT_OK
        lines = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 1 + 28
        assert not failures.exists()

    def test_nan_scores_recorded_as_failures(self, tmp_path):
        runner = tmp_path / "runner.py"
        runner.write_text(
            "import csv, sys\n"
            "from pathlib import Path\n"
            "workdir = Path(sys.argv[1])\n"
            "with open(workdir / 'test.csv') as fh:\n"
            "    rows = list(csv.reader(fh))[1:]\n"
            "lines = ['score_1,score_2,score_3'] + ['nan,nan,nan'] * len(rows)\n"
            "(workdir / 'scores.csv').write_text('\\n'.join(lines) + '\\n')\n")
        doc = small_config_doc(replicates=1)
        doc["scenarios"] = ["balanced"]
        doc["classifiers"]["1"] = {"kind": "external",
                                   "command": ["python3", str(runner)]}
        config_path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == EXIT_NUMERIC
        failures = (tmp_path / "out" / "failures.csv").read_text().splitlines()
        assert len(failures) == 1 + 14
        assert all("scores must be finite" in line for line in failures[1:])
        lines = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 1 + 14


# the sorted names `design` through `report` write for the suite's c7-shaped
# config; at m=5 the same without the SVGs
C7_NAMES = """
    contour_log_sd_balanced_z00.svg contour_log_sd_balanced_z01.svg
    contour_log_sd_balanced_z10.svg contour_log_sd_balanced_z11.svg
    contour_log_sd_consistent_z00.svg contour_log_sd_consistent_z01.svg
    contour_log_sd_consistent_z10.svg contour_log_sd_consistent_z11.svg
    contour_log_sd_reverse_z00.svg contour_log_sd_reverse_z01.svg
    contour_log_sd_reverse_z10.svg contour_log_sd_reverse_z11.svg
    contour_mean_auc_balanced_z00.svg contour_mean_auc_balanced_z01.svg
    contour_mean_auc_balanced_z10.svg contour_mean_auc_balanced_z11.svg
    contour_mean_auc_consistent_z00.svg contour_mean_auc_consistent_z01.svg
    contour_mean_auc_consistent_z10.svg contour_mean_auc_consistent_z11.svg
    contour_mean_auc_reverse_z00.svg contour_mean_auc_reverse_z01.svg
    contour_mean_auc_reverse_z10.svg contour_mean_auc_reverse_z11.svg
    fit_log_sd_balanced.json fit_log_sd_consistent.json fit_log_sd_reverse.json
    fit_mean_auc_balanced.json fit_mean_auc_consistent.json fit_mean_auc_reverse.json
    grid_log_sd_balanced_z00.csv grid_log_sd_balanced_z01.csv grid_log_sd_balanced_z10.csv
    grid_log_sd_balanced_z11.csv grid_log_sd_consistent_z00.csv
    grid_log_sd_consistent_z01.csv grid_log_sd_consistent_z10.csv
    grid_log_sd_consistent_z11.csv grid_log_sd_reverse_z00.csv grid_log_sd_reverse_z01.csv
    grid_log_sd_reverse_z10.csv grid_log_sd_reverse_z11.csv grid_mean_auc_balanced_z00.csv
    grid_mean_auc_balanced_z01.csv grid_mean_auc_balanced_z10.csv
    grid_mean_auc_balanced_z11.csv grid_mean_auc_consistent_z00.csv
    grid_mean_auc_consistent_z01.csv grid_mean_auc_consistent_z10.csv
    grid_mean_auc_consistent_z11.csv grid_mean_auc_reverse_z00.csv
    grid_mean_auc_reverse_z01.csv grid_mean_auc_reverse_z10.csv
    grid_mean_auc_reverse_z11.csv outcomes.csv plan.csv report.txt run_metadata.json
    shap_log_sd_balanced.json shap_log_sd_consistent.json shap_log_sd_reverse.json
    shap_mean_auc_balanced.json shap_mean_auc_consistent.json shap_mean_auc_reverse.json
    shap_phi_log_sd_balanced.csv shap_phi_log_sd_consistent.csv shap_phi_log_sd_reverse.csv
    shap_phi_mean_auc_balanced.csv shap_phi_mean_auc_consistent.csv
    shap_phi_mean_auc_reverse.csv
""".split()

# the same under --scenario balanced
BALANCED_NAMES = """
    contour_log_sd_balanced_z00.svg contour_log_sd_balanced_z01.svg
    contour_log_sd_balanced_z10.svg contour_log_sd_balanced_z11.svg
    contour_mean_auc_balanced_z00.svg contour_mean_auc_balanced_z01.svg
    contour_mean_auc_balanced_z10.svg contour_mean_auc_balanced_z11.svg
    fit_log_sd_balanced.json fit_mean_auc_balanced.json grid_log_sd_balanced_z00.csv
    grid_log_sd_balanced_z01.csv grid_log_sd_balanced_z10.csv grid_log_sd_balanced_z11.csv
    grid_mean_auc_balanced_z00.csv grid_mean_auc_balanced_z01.csv
    grid_mean_auc_balanced_z10.csv grid_mean_auc_balanced_z11.csv outcomes.csv plan.csv
    report.txt run_metadata.json shap_log_sd_balanced.json shap_mean_auc_balanced.json
    shap_phi_log_sd_balanced.csv shap_phi_mean_auc_balanced.csv
""".split()


class TestOutputNames:
    """Every file `design` through `report` writes keeps its name, and the
    stage table names each of them."""

    STAGES = ("design", "simulate", "analyze", "shap", "contour", "report")

    @staticmethod
    def table_names(doc, scenarios):
        """Each file the table says STAGES write, over every response, scenario
        and covariate tag: no run fails, and only m = 3 draws SVGs."""
        tags = ternary.covariate_tags(doc["design"]["covariate_levels"])
        return {pattern.format(response=response, scenario=scenario, tag=tag)
                for stage in TestOutputNames.STAGES for pattern in cli._STAGES[stage][2]
                if pattern != cli.FAILURES
                and (pattern != cli.CONTOUR_SVG or doc["design"]["m"] == 3)
                for response in RESPONSES for scenario in scenarios for tag in tags}

    @pytest.mark.parametrize("case", ["c7", "m5", "balanced"])
    def test_names_are_the_parents_and_the_tables(self, tmp_path, case):
        doc = small_config_doc()
        args, scenarios, names = [], doc["scenarios"], C7_NAMES
        if case == "m5":
            doc["design"].update(m=5)
            # so the 0.96 vertex leaves each class enough test points
            doc["sampling"]["test_frac"] = 0.1
            for spec in doc["pools"].values():
                spec["synthetic"].update(m=5, d=5)
            names = [name for name in C7_NAMES if not name.endswith(".svg")]
        elif case == "balanced":
            args, scenarios, names = ["--scenario", "balanced"], ["balanced"], BALANCED_NAMES
        config_path = write_config(tmp_path, doc)
        for stage in self.STAGES:
            assert main([stage, "--config", str(config_path), "--jobs", "1", *args]) == EXIT_OK
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == names
        assert set(written) == self.table_names(doc, scenarios)
