"""Experiment configuration and end-to-end execution of a run plan.

Each run instance samples its split, trains the classifier mapped to its
algorithm covariate level on the pool mapped to its dataset covariate
level, and scores the test set into per-class AUCs. Instances derive all
randomness from their own seed, so any run reproduces in isolation and
the worker pool's scheduling cannot change results.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .classifiers import (ClassifierError, ClassifierKind, ExternalRunnerError,
                          SyntheticDataConfig, default_class_means, generate_pool,
                          resolve_hyper, train_and_score)
from .design import ALL_SCENARIOS, DesignConfig, DesignError, RunPlan, RunSpec, TestScenario
from .metrics import MetricsError, RunOutcome, auc_ovr
from .sampling import DatasetPool, SamplingConfig, SamplingError, compose_split, load_pool_csv
from .seeding import generator

JOBS_ENV_VAR = "MIXROBUST_JOBS"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ClassifierSpec:
    kind: ClassifierKind
    hyper: tuple = ()
    command: tuple = None

    @property
    def hyper_dict(self):
        return dict(self.hyper)


@dataclass(frozen=True)
class PoolSpec:
    synthetic: SyntheticDataConfig = None
    csv_path: Path = None

    def materialize(self) -> DatasetPool:
        if self.synthetic is not None:
            return generate_pool(self.synthetic)
        return load_pool_csv(self.csv_path)


@dataclass
class ExperimentConfig:
    """Everything one experiment needs: design, sizing, level assignments."""

    design: DesignConfig
    sampling: SamplingConfig
    classifiers: dict
    pool_specs: dict
    scenarios: tuple = ALL_SCENARIOS
    output_dir: Path = Path("out")

    @property
    def master_seed(self):
        return self.design.seed

    def classifier_for(self, spec: RunSpec) -> ClassifierSpec:
        level = spec.covariates[0]
        try:
            return self.classifiers[level]
        except KeyError:
            raise ConfigError(f"no classifier assigned to z1={level:g}") from None

    def pool_level(self, spec: RunSpec):
        return spec.covariates[1]

    def materialize_pools(self):
        return {level: spec.materialize() for level, spec in self.pool_specs.items()}


@dataclass
class RunFailure:
    run_id: int
    replicate: int
    scenario: TestScenario
    reason: str


def execute_run(spec: RunSpec, pool: DatasetPool, classifier: ClassifierSpec,
                sampling: SamplingConfig) -> RunOutcome:
    """Sample, train, score and reduce one run instance to its outcome."""
    split = compose_split(pool, spec.train_mixture, spec.test_mixture, sampling,
                          train_rng=generator(spec.seed, "train"),
                          test_rng=generator(spec.seed, "test"))
    scores = train_and_score(classifier.kind, split, pool,
                             hyper=classifier.hyper_dict,
                             command=classifier.command)
    test_labels = pool.labels[split.test_indices]
    aucs = [auc_ovr(scores, test_labels, j) for j in range(1, pool.m + 1)]
    return RunOutcome.from_aucs(spec.run_id, spec.replicate, spec.scenario,
                                spec.covariates, spec.train_mixture, aucs)


def resolve_jobs(jobs=None):
    """Worker count: MIXROBUST_JOBS env overrides the argument; default is
    the available parallelism."""
    env = os.environ.get(JOBS_ENV_VAR)
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(f"{JOBS_ENV_VAR}={env!r} is not an integer") from None
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


_WORKER_STATE = {}


def _init_worker(pools, classifiers, sampling):
    _WORKER_STATE["pools"] = pools
    _WORKER_STATE["classifiers"] = classifiers
    _WORKER_STATE["sampling"] = sampling


def _run_in_worker(spec: RunSpec):
    pools = _WORKER_STATE["pools"]
    classifiers = _WORKER_STATE["classifiers"]
    sampling = _WORKER_STATE["sampling"]
    return _execute_guarded(spec, pools[spec.covariates[1]],
                            classifiers[spec.covariates[0]], sampling)


def _execute_guarded(spec, pool, classifier, sampling):
    try:
        return execute_run(spec, pool, classifier, sampling)
    except (SamplingError, ClassifierError, MetricsError, ExternalRunnerError) as exc:
        return RunFailure(spec.run_id, spec.replicate, spec.scenario, str(exc))


def _check_pools(pools, m):
    """Every pool must hold exactly the labels 1..m, and all pools one
    feature width; raises ConfigError before any run is attempted."""
    for level, pool in sorted(pools.items()):
        missing = [j + 1 for j, rows in enumerate(pool.class_index) if rows.size == 0]
        if pool.m != m or missing:
            found = sorted(set(range(1, pool.m + 1)) - set(missing))
            raise ConfigError(f"pool z2={level:g} has labels {found}; "
                              f"the design needs exactly 1..{m}")
    widths = {level: pool.d for level, pool in pools.items()}
    if len(set(widths.values())) > 1:
        raise ConfigError("pools differ in feature width: " + ", ".join(
            f"z2={level:g} has d={d}" for level, d in sorted(widths.items())))


def simulate_plan(plan: RunPlan, config: ExperimentConfig, jobs=1, pools=None):
    """Execute every run instance; returns (outcomes, failures) by run_id.

    Results are collected and ordered by run_id, so output does not depend
    on worker scheduling.
    """
    if plan.config.h < 2:
        raise ConfigError("the pipeline expects two covariates: the classifier "
                          "level and the pool level")
    pools = config.materialize_pools() if pools is None else pools
    _check_pools(pools, plan.config.m)
    for spec in plan.runs:
        config.classifier_for(spec)
        if spec.covariates[1] not in pools:
            raise ConfigError(f"no pool assigned to z2={spec.covariates[1]:g}")
        if spec.scenario is None or spec.test_mixture is None:
            raise DesignError(f"run {spec.run_id} has no scenario assignment")

    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(plan.runs) <= 1:
        results = [
            _execute_guarded(spec, pools[spec.covariates[1]],
                             config.classifier_for(spec), config.sampling)
            for spec in plan.runs
        ]
    else:
        with ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker,
                initargs=(pools, config.classifiers, config.sampling)) as executor:
            results = list(executor.map(_run_in_worker, plan.runs, chunksize=8))

    outcomes = sorted((r for r in results if isinstance(r, RunOutcome)),
                      key=lambda o: o.run_id)
    failures = sorted((r for r in results if isinstance(r, RunFailure)),
                      key=lambda f: f.run_id)
    return outcomes, failures


def _require(doc, key, where):
    if key not in doc:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return doc[key]


def _parse_level_map(doc, where):
    try:
        return {float(level): value for level, value in doc.items()}
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: keys must be covariate level values") from None


def _parse_classifier(doc, where):
    hyper = doc.get("hyper", {})
    if not isinstance(hyper, dict):
        raise ConfigError(f"{where}: hyper must be an object of numbers")
    try:
        kind = ClassifierKind.parse(_require(doc, "kind", where))
        resolve_hyper(kind, hyper)
    except ClassifierError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    hyper = {str(k): float(v) for k, v in hyper.items()}
    command = doc.get("command")
    if kind is ClassifierKind.EXTERNAL:
        if not command:
            raise ConfigError(f"{where}: external classifier needs a command list")
        command = tuple(str(part) for part in command)
    elif command:
        raise ConfigError(f"{where}: only external classifiers take a command")
    return ClassifierSpec(kind=kind, hyper=tuple(sorted(hyper.items())),
                          command=command if kind is ClassifierKind.EXTERNAL else None)


def _parse_synthetic(doc, where):
    m = int(_require(doc, "m", where))
    d = int(_require(doc, "d", where))
    if "class_means" in doc:
        means = tuple(tuple(float(v) for v in row) for row in doc["class_means"])
    else:
        means = default_class_means(m, d, float(doc.get("separation", 3.0)))
    boost = doc.get("separability_boost")
    return SyntheticDataConfig(
        m=m, d=d, n_per_class=int(_require(doc, "n_per_class", where)),
        class_means=means, noise_scale=float(doc.get("noise_scale", 1.0)),
        separability_boost=tuple(float(b) for b in boost) if boost else None,
        seed=int(doc.get("seed", 0)))


def _parse_pool(doc, where, base_dir):
    if "synthetic" in doc:
        return PoolSpec(synthetic=_parse_synthetic(doc["synthetic"], where))
    if "csv" in doc:
        return PoolSpec(csv_path=(base_dir / doc["csv"]).resolve())
    raise ConfigError(f"{where}: pool needs either a 'synthetic' or a 'csv' entry")


def parse_experiment_config(doc: dict, base_dir=Path(".")) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    Relative paths resolve against base_dir (the config file's directory).
    """
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    design_doc = dict(doc.get("design", {}))
    try:
        design = DesignConfig(
            m=int(design_doc.get("m", 3)),
            covariate_levels=tuple(tuple(float(v) for v in lv)
                                   for lv in design_doc.get("covariate_levels",
                                                            ((1, 0), (1, 0)))),
            min_prop=float(design_doc.get("min_prop", 0.01)),
            replicates=int(design_doc.get("replicates", 3)),
            seed=int(doc.get("master_seed", 0)))
    except DesignError as exc:
        raise ConfigError(f"design: {exc}") from None
    sampling_doc = dict(doc.get("sampling", {}))
    try:
        sampling = SamplingConfig(train_frac=float(sampling_doc.get("train_frac", 0.10)),
                                  test_frac=float(sampling_doc.get("test_frac", 0.25)))
    except SamplingError as exc:
        raise ConfigError(f"sampling: {exc}") from None

    classifiers = {level: _parse_classifier(sub, f"classifiers[{level:g}]")
                   for level, sub in _parse_level_map(
                       _require(doc, "classifiers", "config"), "classifiers").items()}
    pools = {level: _parse_pool(sub, f"pools[{level:g}]", base_dir)
             for level, sub in _parse_level_map(
                 _require(doc, "pools", "config"), "pools").items()}

    if design.h >= 1:
        for level in design.covariate_levels[0]:
            if level not in classifiers:
                raise ConfigError(f"classifiers: no entry for z1 level {level:g}")
    if design.h >= 2:
        for level in design.covariate_levels[1]:
            if level not in pools:
                raise ConfigError(f"pools: no entry for z2 level {level:g}")

    scenario_names = doc.get("scenarios", [s.value for s in ALL_SCENARIOS])
    try:
        scenarios = tuple(TestScenario.parse(name) for name in scenario_names)
    except DesignError as exc:
        raise ConfigError(str(exc)) from None
    if not scenarios:
        raise ConfigError("scenarios list must be nonempty")

    output_dir = base_dir / doc.get("output_dir", "out")
    return ExperimentConfig(design=design, sampling=sampling, classifiers=classifiers,
                            pool_specs=pools, scenarios=scenarios,
                            output_dir=output_dir)


def with_master_seed(config: ExperimentConfig, seed) -> ExperimentConfig:
    return replace(config, design=replace(config.design, seed=int(seed)))
