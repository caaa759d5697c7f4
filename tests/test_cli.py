import hashlib
import json
import shutil
import xml.etree.ElementTree as ET

import pytest

from mixrobust.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                           EXIT_USAGE, main)

from test_pipeline import small_config_doc


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


class TestSimulateCommand:
    def test_outcomes_written(self, experiment_dir):
        tmp_path, _ = experiment_dir
        lines = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 1 + 84
        assert lines[0] == ("run_id,replicate,scenario,z1,z2,x1,x2,x3,"
                            "auc_1,auc_2,auc_3,mean_auc,log_sd,degenerate_flag")

    def test_rerun_byte_identical(self, experiment_dir):
        tmp_path, config_path = experiment_dir
        outcomes = tmp_path / "out" / "outcomes.csv"
        first = outcomes.read_bytes()
        assert main(["simulate", "--config", str(config_path), "--jobs", "1"]) == EXIT_OK
        assert outcomes.read_bytes() == first

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


class TestNonFiniteOutcomes:
    @pytest.mark.parametrize("command", ["analyze", "shap", "contour"])
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
    def test_report_text(self, experiment_dir, capsys):
        tmp_path, config_path = experiment_dir
        assert main(["report", "--config", str(config_path)]) == EXIT_OK
        text = (tmp_path / "out" / "report.txt").read_text()
        for scenario in ("Balanced", "Consistent", "Reverse"):
            assert f"== {scenario} scenario" in text
        assert "Implied effect" in text
        assert "Mean AUC" in text and "Log SD" in text
        assert "z1" in text and "z2" in text

    def test_missing_fits_is_io_error(self, tmp_path):
        config_path = write_config(tmp_path)
        assert main(["report", "--config", str(config_path)]) == EXIT_IO

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


def _bad_value(keys, value, section, id):
    return pytest.param(keys, value, section, id=id)


# one malformed value per row: (path of keys into the config, value, section)
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
    _bad_value(("scenarios",), 5, "scenarios", "scenarios-number"),
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
]


class TestConfigErrorBoundary:
    @pytest.mark.parametrize("keys,value,section", BAD_CONFIG_VALUES)
    def test_bad_value_exits_config_naming_section(self, tmp_path, capsys, keys, value,
                                                   section):
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
        assert f"{section}: " in capsys.readouterr().err
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
