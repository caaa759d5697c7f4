from dataclasses import replace

import numpy as np
import pytest

from mixrobust import (ClassifierKind, ConfigError, DesignConfig, RunFailure,
                       SamplingConfig, build_run_plan, execute_batch,
                       parse_experiment_config, simulate_plan)
from mixrobust.classifiers import SyntheticDataConfig, default_class_means, generate_pool
from mixrobust.pipeline import plan_batches, resolve_jobs, with_master_seed


def small_config_doc(n_per_class=400, replicates=1, master_seed=99):
    return {
        "design": {"m": 3, "min_prop": 0.01, "replicates": replicates,
                   "covariate_levels": [[1, 0], [1, 0]]},
        # test_frac below the canonical 0.25: replacement draws leave a
        # 0.98-dominant class within a few points of exhaustion at this
        # pool size, and the happy-path tests should stay off that edge
        "sampling": {"train_frac": 0.10, "test_frac": 0.20},
        "classifiers": {"1": {"kind": "logistic", "hyper": {"epochs": 80}},
                        "0": {"kind": "boosted_stumps", "hyper": {"rounds": 10}}},
        "pools": {"1": {"synthetic": {"m": 3, "d": 3, "n_per_class": n_per_class,
                                      "separation": 2.5, "seed": 11}},
                  "0": {"synthetic": {"m": 3, "d": 3, "n_per_class": n_per_class,
                                      "separation": 2.5, "seed": 12}}},
        "scenarios": ["balanced", "consistent", "reverse"],
        "output_dir": "out",
        "master_seed": master_seed,
    }


class TestConfigParsing:
    def test_parses_complete_document(self, tmp_path):
        config = parse_experiment_config(small_config_doc(), tmp_path)
        assert config.design.m == 3
        assert config.design.seed == 99
        assert config.sampling.test_frac == 0.20
        assert config.classifiers[1.0].kind is ClassifierKind.LOGISTIC
        assert config.pool_specs[0.0].synthetic.seed == 12
        assert len(config.scenarios) == 3
        assert config.output_dir == tmp_path / "out"

    def test_missing_classifier_level_rejected(self, tmp_path):
        doc = small_config_doc()
        del doc["classifiers"]["0"]
        with pytest.raises(ConfigError, match="z1 level 0"):
            parse_experiment_config(doc, tmp_path)

    def test_missing_pool_level_rejected(self, tmp_path):
        doc = small_config_doc()
        del doc["pools"]["1"]
        with pytest.raises(ConfigError, match="z2 level 1"):
            parse_experiment_config(doc, tmp_path)

    def test_unknown_scenario_rejected(self, tmp_path):
        doc = small_config_doc()
        doc["scenarios"] = ["balanced", "sideways"]
        with pytest.raises(ConfigError, match="sideways"):
            parse_experiment_config(doc, tmp_path)

    def test_external_needs_command(self, tmp_path):
        doc = small_config_doc()
        doc["classifiers"]["1"] = {"kind": "external"}
        with pytest.raises(ConfigError, match="command"):
            parse_experiment_config(doc, tmp_path)

    @pytest.mark.parametrize("level,entry,match", [
        ("1", {"kind": "logistic", "hyper": {"epoch": 5}},
         r"'epoch'; allowed: epochs, step, l2"),
        ("0", {"kind": "boosted_stumps", "hyper": {"round": 2}},
         r"'round'; allowed: rounds, shrinkage"),
        ("1", {"kind": "external", "command": ["true"], "hyper": {"epochs": 5}},
         r"'epochs'; allowed: none"),
        ("1", {"kind": "logistc"}, "unknown classifier kind"),
        ("1", {"kind": "external", "command": "python3 runner.py"}, "command list"),
        ("1", {"kind": "external", "command": 5}, "command list"),
        ("0", ["logistic"], "missing required key 'kind'"),
    ])
    def test_bad_classifier_entry_rejected(self, tmp_path, level, entry, match):
        doc = small_config_doc()
        doc["classifiers"][level] = entry
        with pytest.raises(ConfigError, match=rf"classifiers\[{level}\]: .*{match}"):
            parse_experiment_config(doc, tmp_path)

    @pytest.mark.parametrize("level,entry,match", [
        ("1", {"kind": "logistic", "hyper": {"epochs": -5}}, "'epochs' must be an integer >= 0"),
        ("0", {"kind": "boosted_stumps", "hyper": {"rounds": 2.7}},
         "'rounds' must be an integer >= 0"),
        ("1", {"kind": "logistic", "hyper": {"epochs": "many"}}, "got 'many'"),
        ("1", {"kind": "logistic", "hyper": {"step": True}}, "'step' must be finite and > 0"),
        ("1", {"kind": "logistic", "hyper": [1]}, "hyper must be an object"),
        ("0", {"kind": "boosted_stumps", "hyper": "fast"}, "hyper must be an object"),
    ])
    def test_bad_hyper_value_rejected(self, tmp_path, level, entry, match):
        doc = small_config_doc()
        doc["classifiers"][level] = entry
        with pytest.raises(ConfigError, match=rf"classifiers\[{level}\]: .*{match}"):
            parse_experiment_config(doc, tmp_path)

    def test_integer_keys_keep_whole_numbers_exactly(self, tmp_path):
        doc = small_config_doc(replicates=2.0, master_seed=2**60 + 1)
        doc["pools"]["1"]["synthetic"]["n_per_class"] = 400.0
        config = parse_experiment_config(doc, tmp_path)
        assert type(config.design.replicates) is int and config.design.replicates == 2
        assert config.design.seed == 2**60 + 1
        assert config.pool_specs[1.0].synthetic.n_per_class == 400

    @pytest.mark.parametrize("section,key,value", [
        ("design", "replicates", 2.5),
        ("design", "m", True),
        (None, "master_seed", "7"),
        ("synthetic", "seed", 1.5),
        ("synthetic", "d", float("inf")),
    ])
    def test_integer_keys_reject_other_values(self, tmp_path, section, key, value):
        doc = small_config_doc()
        target = {None: doc, "design": doc["design"],
                  "synthetic": doc["pools"]["0"]["synthetic"]}[section]
        target[key] = value
        where = r"pools\[0\]" if section == "synthetic" else "design"
        with pytest.raises(ConfigError, match=rf"^{where}: {key} must be a whole number, "
                                              rf"got {value!r}$"):
            parse_experiment_config(doc, tmp_path)

    @pytest.mark.parametrize("scenarios", [5, []])
    def test_bad_scenarios_name_the_section(self, tmp_path, scenarios):
        doc = small_config_doc()
        doc["scenarios"] = scenarios
        with pytest.raises(ConfigError, match="^scenarios: "):
            parse_experiment_config(doc, tmp_path)

    def test_hyper_keeps_only_given_keys(self, tmp_path):
        config = parse_experiment_config(small_config_doc(), tmp_path)
        assert config.classifiers[1.0].hyper == (("epochs", 80.0),)
        assert config.classifiers[0.0].hyper == (("rounds", 10.0),)

    def test_master_seed_override(self, tmp_path):
        config = parse_experiment_config(small_config_doc(), tmp_path)
        assert with_master_seed(config, 7).design.seed == 7


class TestResolveJobs:
    def test_explicit_value(self):
        assert resolve_jobs(3) == 3

    def test_default_positive(self):
        assert resolve_jobs(None) >= 1

    def test_rejects_zero(self):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            resolve_jobs(0)


class TestOneRunBatch:
    def test_single_run_outcome(self, tmp_path):
        config = parse_experiment_config(small_config_doc(), tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        pool = config.pool_specs[1.0].materialize()
        spec = plan.runs[0]
        [outcome] = execute_batch([spec], pool, config.classifiers[spec.covariates[0]],
                                  config.sampling)
        assert outcome.run_id == spec.run_id
        assert len(outcome.aucs) == 3
        assert all(0.0 <= a <= 1.0 for a in outcome.aucs)
        assert outcome.mean_auc == pytest.approx(np.mean(outcome.aucs), abs=1e-12)

    def test_mixture_off_one_fails_its_run_alone(self, tmp_path):
        config = parse_experiment_config(small_config_doc(), tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        pool = config.pool_specs[1.0].materialize()
        good = plan.runs[0]
        bad = replace(good, run_id=0, train_mixture=(0.6, 0.6, 0.6))
        classifier = config.classifiers[good.covariates[0]]
        failure, outcome = execute_batch([bad, good], pool, classifier, config.sampling)
        assert isinstance(failure, RunFailure) and failure.run_id == 0
        assert failure.reason.endswith("sums to 1.7999999999999998, not 1")
        assert outcome == execute_batch([good], pool, classifier, config.sampling)[0]

    def test_deterministic_given_spec_seed(self, tmp_path):
        config = parse_experiment_config(small_config_doc(), tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        pool = config.pool_specs[1.0].materialize()
        spec = plan.runs[5]
        classifier = config.classifiers[spec.covariates[0]]
        [a] = execute_batch([spec], pool, classifier, config.sampling)
        [b] = execute_batch([spec], pool, classifier, config.sampling)
        assert a.aucs == b.aucs


class TestSimulatePlan:
    def _setup(self, tmp_path, **kwargs):
        config = parse_experiment_config(small_config_doc(**kwargs), tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        return config, plan

    def test_outcomes_ordered_and_complete(self, tmp_path):
        config, plan = self._setup(tmp_path)
        outcomes, failures = simulate_plan(plan, config, jobs=1)
        assert not failures
        assert [o.run_id for o in outcomes] == list(range(1, 85))

    def test_rerun_identical(self, tmp_path):
        config, plan = self._setup(tmp_path)
        first, _ = simulate_plan(plan, config, jobs=1)
        second, _ = simulate_plan(plan, config, jobs=1)
        assert [o.aucs for o in first] == [o.aucs for o in second]

    def test_worker_pool_matches_serial(self, tmp_path):
        config, plan = self._setup(tmp_path)
        plan.runs = plan.runs[:12]
        serial, _ = simulate_plan(plan, config, jobs=1)
        parallel, _ = simulate_plan(plan, config, jobs=2)
        assert [o.aucs for o in serial] == [o.aucs for o in parallel]

    def test_tiny_pool_records_failures(self, tmp_path):
        # 12-point training draws put zero observations in the rare classes,
        # so the dominant-class runs cannot train
        config, plan = self._setup(tmp_path, n_per_class=40)
        outcomes, failures = simulate_plan(plan, config, jobs=1)
        assert failures
        assert all(isinstance(f, RunFailure) for f in failures)
        assert len(outcomes) + len(failures) == 84
        assert all(f.reason for f in failures)

    def test_single_covariate_plan_rejected(self, tmp_path):
        config, _ = self._setup(tmp_path)
        design = DesignConfig(m=3, covariate_levels=((1, 0),), min_prop=0.01,
                              replicates=1, seed=1)
        plan = build_run_plan(design, config.scenarios)
        with pytest.raises(ConfigError, match="two covariates"):
            simulate_plan(plan, config, jobs=1)


class TestBatches:
    """Runs execute in batches that share a classifier and a pool; results
    must not depend on batch makeup or on the worker count."""

    def test_batches_group_runs_in_plan_order(self, tmp_path):
        config = parse_experiment_config(small_config_doc(), tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        batches = plan_batches(plan.runs)
        assert [len(b) for b in batches] == [8, 8, 5] * 4
        for batch in batches:
            assert len({spec.covariates for spec in batch}) == 1
        for z in {spec.covariates for spec in plan.runs}:
            group = [spec for spec in plan.runs if spec.covariates == z]
            assert [s for b in batches if b[0].covariates == z for s in b] == group

    @staticmethod
    def _alone(spec, pools, config):
        """("ok", aucs) of a run executed in a batch of its own, or the kind
        of its failure ("sampling" or "classifier") and its reason."""
        [result] = execute_batch([spec], pools[spec.covariates[1]],
                                 config.classifier_for(spec), config.sampling)
        if not isinstance(result, RunFailure):
            return "ok", result.aucs
        if "test points requested" in result.reason:
            return "sampling", result.reason
        if "fewer than 2 classes" in result.reason:
            return "classifier", result.reason
        return "other", result.reason

    def test_mixed_batches_equal_runs_alone(self, tmp_path):
        # test rows near the class sizes: some test draws fall short, and
        # dominant-class training draws miss the rare classes
        doc = small_config_doc(n_per_class=50)
        doc["sampling"]["test_frac"] = 0.3
        config = parse_experiment_config(doc, tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        pools = config.materialize_pools()
        alone = {spec.run_id: self._alone(spec, pools, config) for spec in plan.runs}

        picked = []
        for z in [(1.0, 1.0), (0.0, 1.0)]:  # logistic, boosted stumps
            by_status = {}
            for spec in plan.runs:
                if spec.covariates == z:
                    by_status.setdefault(alone[spec.run_id][0], []).append(spec)
            good = by_status["ok"]
            picked += [good[0], by_status["sampling"][0], good[1],
                       by_status["classifier"][0], good[2]]
        plan.runs = picked
        assert [len(b) for b in plan_batches(plan.runs)] == [5, 5]
        for jobs in (1, 2):
            outcomes, failures = simulate_plan(plan, config, jobs=jobs)
            got = {o.run_id: o.aucs for o in outcomes}
            got.update({f.run_id: f.reason for f in failures})
            assert got == {spec.run_id: alone[spec.run_id][1] for spec in picked}


class TestPoolsMatchDesign:
    """A pool that cannot serve the design is a config error before any run."""

    @staticmethod
    def _simulate(tmp_path, pool_entry):
        doc = small_config_doc(n_per_class=60)
        doc["pools"]["1"] = pool_entry
        config = parse_experiment_config(doc, tmp_path)
        return simulate_plan(build_run_plan(config.design, config.scenarios), config, jobs=1)

    @pytest.mark.parametrize("synthetic,match", [
        ({"m": 4, "d": 4}, r"pool z2=1 has labels \[1, 2, 3, 4\]; the design needs exactly 1..3"),
        ({"m": 2}, r"pool z2=1 has labels \[1, 2\]"),
        ({"d": 4}, "pools differ in feature width: z2=0 has d=3, z2=1 has d=4"),
    ])
    def test_mismatched_synthetic_pool_rejected(self, tmp_path, synthetic, match):
        entry = {"m": 3, "d": 3, "n_per_class": 60, "seed": 11, **synthetic}
        with pytest.raises(ConfigError, match=match):
            self._simulate(tmp_path, {"synthetic": entry})

    def test_csv_pool_missing_a_label_rejected(self, tmp_path):
        from mixrobust import DatasetPool, write_pool_csv

        rng = np.random.default_rng(0)
        write_pool_csv(DatasetPool(features=rng.normal(size=(60, 3)),
                                   labels=np.repeat([1, 3], 30)), tmp_path / "pool.csv")
        with pytest.raises(ConfigError, match=r"pool z2=1 has labels \[1, 3\]"):
            self._simulate(tmp_path, {"csv": "pool.csv"})


class TestTestCapacity:
    """A run whose test count for a class exceeds that class's pool size can
    never succeed: a config error before any run."""

    def test_test_count_over_class_size_rejected(self, tmp_path):
        doc = small_config_doc(n_per_class=300)
        doc["sampling"]["test_frac"] = 0.5
        config = parse_experiment_config(doc, tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        with pytest.raises(ConfigError, match=r"^run 29: 441 test points of class 1 "
                                              r"requested but pool z2=1 holds only 300$"):
            simulate_plan(plan, config, jobs=1)

    @pytest.mark.parametrize("key", ["train_frac", "test_frac"])
    def test_empty_side_of_a_split_rejected(self, tmp_path, key):
        # 0.001 of a 120-row pool rounds to no rows: no run could ever succeed
        doc = small_config_doc(n_per_class=40)
        doc["sampling"][key] = 0.001
        config = parse_experiment_config(doc, tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        with pytest.raises(ConfigError, match=rf"^sampling\.{key} 0\.001 rounds to 0 of "
                                              r"the 120 rows of pool z2=0$"):
            simulate_plan(plan, config, jobs=1)

    def test_checked_once_per_pool_and_test_mixture(self, tmp_path, monkeypatch):
        from mixrobust import pipeline

        calls = []
        counts = pipeline.class_counts

        def counting(mixture, total):
            calls.append(mixture)
            return counts(mixture, total)

        monkeypatch.setattr(pipeline, "class_counts", counting)
        config = parse_experiment_config(small_config_doc(replicates=2), tmp_path)
        plan = build_run_plan(config.design, config.scenarios)
        pipeline.checked_pools(plan, config)
        distinct = {(spec.covariates[1], spec.test_mixture) for spec in plan.runs}
        assert len(calls) == len(distinct) < len(plan.runs)


class TestPoolSpecMaterialization:
    def test_unreadable_pool_names_its_level(self, tmp_path):
        doc = small_config_doc()
        doc["pools"]["1"] = {"csv": "missing.csv"}
        config = parse_experiment_config(doc, tmp_path)
        with pytest.raises(ConfigError, match=r"^pools\[1\]: .*missing\.csv"):
            config.materialize_pools()

    def test_csv_pool_spec(self, tmp_path):
        from mixrobust import write_pool_csv
        from mixrobust.pipeline import PoolSpec

        pool = generate_pool(SyntheticDataConfig(
            m=2, d=2, n_per_class=10, class_means=default_class_means(2, 2), seed=3))
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path)
        spec = PoolSpec(csv_path=path)
        loaded = spec.materialize()
        assert loaded.n == 20
        assert np.allclose(loaded.features, pool.features)
