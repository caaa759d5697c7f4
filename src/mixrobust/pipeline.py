"""Experiment configuration and end-to-end execution of a run plan.

Each run instance samples its split, trains the classifier mapped to its
algorithm covariate level on the pool mapped to its dataset covariate
level, and scores the test set into per-class AUCs. Instances derive all
randomness from their own seed, so any run reproduces in isolation, and
neither the batch a run executes in nor the worker pool's scheduling can
change results.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .classifiers import (ClassifierError, ClassifierKind, SyntheticDataConfig,
                          default_class_means, generate_pool, resolve_hyper,
                          train_and_score_batch)
from .design import (ALL_SCENARIOS, DesignConfig, DesignError, RunPlan, RunSpec,
                     TestScenario, real_table, whole_number)
from .metrics import MetricsError, RunOutcome, aucs_ovr
from .sampling import (DatasetPool, SamplingConfig, SamplingError, class_counts,
                       compose_split, load_pool_csv, split_sizes)
from .seeding import generator

# runs of one (classifier, pool) group that execute together, one batch per
# worker task
BATCH_SIZE = 8


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind, its hyper overrides as sorted pairs, an external command."""

    kind: ClassifierKind
    hyper: tuple = ()
    command: tuple = None

    def __post_init__(self):
        kind, hyper, command = ClassifierKind.parse(self.kind), dict(self.hyper), self.command
        resolve_hyper(kind, hyper)
        if kind is ClassifierKind.EXTERNAL and not isinstance(command or None, (list, tuple)):
            raise ClassifierError("external classifier needs a command list")
        if kind is not ClassifierKind.EXTERNAL and command:
            raise ClassifierError("only external classifiers take a command")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "hyper", tuple(sorted((str(k), float(v)) for k, v in hyper.items())))
        object.__setattr__(self, "command", tuple(map(str, command)) if command else None)

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
    """Everything one experiment needs: design, sizing, level assignments.

    Every level of the classifier covariate z1 needs a classifier, and every
    level of the pool covariate z2 a pool; the scenarios, parsed by
    `TestScenario.parse`, are a nonempty tuple. Otherwise raises ConfigError.
    """

    design: DesignConfig
    sampling: SamplingConfig
    classifiers: dict
    pool_specs: dict
    scenarios: tuple = ALL_SCENARIOS
    output_dir: Path = Path("out")

    def __post_init__(self):
        sections = (("classifiers", self.classifiers), ("pools", self.pool_specs))
        for k, (name, entries) in zip(range(self.design.h), sections):
            for level in self.design.covariate_levels[k]:
                if level not in entries:
                    raise ConfigError(f"{name}: no entry for z{k + 1} level {level:g}")
        with _section("scenarios"):
            self.scenarios = tuple(map(TestScenario.parse, self.scenarios))
            if not self.scenarios:
                raise ConfigError("the list must be nonempty")

    def classifier_for(self, spec: RunSpec) -> ClassifierSpec:
        level = spec.covariates[0]
        try:
            return self.classifiers[level]
        except KeyError:
            raise ConfigError(f"no classifier assigned to z1={level:g}") from None

    def materialize_pools(self):
        pools = {}
        for level, spec in self.pool_specs.items():
            with _section(f"pools[{level:g}]"):
                pools[level] = spec.materialize()
        return pools


@dataclass
class RunFailure:
    run_id: int
    replicate: int
    scenario: TestScenario
    reason: str


def execute_batch(specs, pool: DatasetPool, classifier: ClassifierSpec,
                  sampling: SamplingConfig):
    """Sample, train, score and reduce runs that share the classifier and the
    pool to their outcomes.

    Every run samples with its own seeds, the splits that survive train
    together, and each run's AUCs come from its own scores, so a run's
    result is the one it gets in a batch of its own. Returns one RunOutcome,
    or a RunFailure naming the error that run raised, per spec.
    """
    results = [None] * len(specs)
    drawn = []
    for i, spec in enumerate(specs):
        try:
            drawn.append((i, compose_split(pool, spec.train_mixture, spec.test_mixture,
                                           sampling, train_rng=generator(spec.seed, "train"),
                                           test_rng=generator(spec.seed, "test"))))
        except SamplingError as exc:
            results[i] = _failure(spec, exc)
    scored = train_and_score_batch(classifier.kind, [split for _, split in drawn], pool,
                                   hyper=classifier.hyper_dict, command=classifier.command)
    for (i, split), scores in zip(drawn, scored):
        spec = specs[i]
        if isinstance(scores, Exception):
            results[i] = _failure(spec, scores)
            continue
        try:
            aucs = aucs_ovr(scores, pool.labels[split.test_indices])
            results[i] = RunOutcome.from_aucs(spec.run_id, spec.replicate, spec.scenario,
                                              spec.covariates, spec.train_mixture, aucs)
        except MetricsError as exc:
            results[i] = _failure(spec, exc)
    return results


def _failure(spec, exc):
    return RunFailure(spec.run_id, spec.replicate, spec.scenario, str(exc))


def resolve_jobs(jobs=None):
    """Worker count: the argument, by default the CPU count."""
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


def _execute_batch_in_worker(specs):
    z1, z2 = specs[0].covariates[:2]
    return execute_batch(specs, _WORKER_STATE["pools"][z2],
                         _WORKER_STATE["classifiers"][z1], _WORKER_STATE["sampling"])


def plan_batches(runs):
    """The runs grouped by (classifier level, pool level) in plan order, each
    group cut into batches of BATCH_SIZE."""
    groups = {}
    for spec in runs:
        groups.setdefault(spec.covariates[:2], []).append(spec)
    return [group[start:start + BATCH_SIZE] for group in groups.values()
            for start in range(0, len(group), BATCH_SIZE)]


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


def checked_pools(plan: RunPlan, config: ExperimentConfig, pools=None):
    """The pools the plan runs on, materialised unless given, once every pool
    gives both sides of a split at least one row and every run has a
    classifier, a matching pool, a scenario and no test count above its
    class's pool size (checked once per pool and test mixture). Raises
    ConfigError or DesignError before any run is attempted."""
    if plan.config.h < 2:
        raise ConfigError("the pipeline expects two covariates: the classifier "
                          "level and the pool level")
    pools = config.materialize_pools() if pools is None else pools
    _check_pools(pools, plan.config.m)
    for level, pool in sorted(pools.items()):
        for key, size in zip(("train_frac", "test_frac"),
                             split_sizes(config.sampling, pool.n)):
            if size == 0:
                raise ConfigError(f"sampling.{key} {getattr(config.sampling, key):g} "
                                  f"rounds to 0 of the {pool.n} rows of pool z2={level:g}")
    first_runs = {}
    for spec in plan.runs:
        config.classifier_for(spec)
        if spec.covariates[1] not in pools:
            raise ConfigError(f"no pool assigned to z2={spec.covariates[1]:g}")
        if spec.scenario is None or spec.test_mixture is None:
            raise DesignError(f"run {spec.run_id} has no scenario assignment")
        first_runs.setdefault((spec.covariates[1], spec.test_mixture), spec)
    for (level, mixture), spec in first_runs.items():
        counts = class_counts(mixture, split_sizes(config.sampling, pools[level].n)[1])
        for j, (count, rows) in enumerate(zip(counts, pools[level].class_index), start=1):
            if count > rows.size:
                raise ConfigError(f"run {spec.run_id}: {count} test points of class {j} "
                                  f"requested but pool z2={level:g} holds only {rows.size}")
    return pools


def simulate_plan(plan: RunPlan, config: ExperimentConfig, jobs=1, pools=None):
    """Execute every run instance; returns (outcomes, failures) by run_id.

    Runs execute in `plan_batches`, serially or one batch per worker task.
    Results are collected and ordered by run_id, so output depends on
    neither the batches nor worker scheduling.
    """
    pools = checked_pools(plan, config, pools)
    batches = plan_batches(plan.runs)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(batches) <= 1:
        results = [result for batch in batches
                   for result in execute_batch(batch, pools[batch[0].covariates[1]],
                                               config.classifier_for(batch[0]),
                                               config.sampling)]
    else:
        with ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker,
                initargs=(pools, config.classifiers, config.sampling)) as executor:
            results = [result for batch in executor.map(_execute_batch_in_worker, batches)
                       for result in batch]

    outcomes = sorted((r for r in results if isinstance(r, RunOutcome)),
                      key=lambda o: o.run_id)
    failures = sorted((r for r in results if isinstance(r, RunFailure)),
                      key=lambda f: f.run_id)
    return outcomes, failures


@contextmanager
def _section(where):
    """Turn a bad value met while reading config section `where` into one
    ConfigError naming it; every mixrobust error class is a ValueError."""
    try:
        yield
    except (TypeError, ValueError, KeyError, ArithmeticError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _require(doc, key):
    if key not in doc:
        raise ConfigError(f"missing required key {key!r}")
    return doc[key]


def _given(doc, *keys):
    """The entries of `doc` under those `keys` it holds; the dataclass defaults the rest."""
    return {key: doc[key] for key in keys if key in doc}


def _level_map(doc):
    if not isinstance(doc, dict):
        raise ConfigError("expected an object keyed by covariate level")
    return {float(level): value for level, value in doc.items()}


def _parse_classifier(doc):
    kind = ClassifierKind.parse(_require(doc, "kind"))
    fields = _given(doc, "hyper", "command")
    if not isinstance(fields.get("hyper", {}), dict):
        raise ConfigError("hyper must be an object of numbers")
    return ClassifierSpec(kind, **fields)


def _parse_synthetic(doc):
    """Means from `class_means` or `separation` are checked after m and d, as the
    dataclass checks them. A null or an empty list `separability_boost` means none."""
    m, d = (whole_number(_require(doc, key), key) for key in ("m", "d"))
    means = (real_table(doc["class_means"], "class_means") if "class_means" in doc
             else default_class_means(m, d, **_given(doc, "separation")))
    _require(doc, "n_per_class")
    fields = _given(doc, "n_per_class", "noise_scale", "separability_boost", "seed")
    if fields.get("separability_boost") == []:
        fields["separability_boost"] = None
    return SyntheticDataConfig(m=m, d=d, class_means=means, **fields)


def _parse_pool(doc, base_dir):
    if "synthetic" in doc:
        return PoolSpec(synthetic=_parse_synthetic(doc["synthetic"]))
    if "csv" in doc:
        return PoolSpec(csv_path=(base_dir / doc["csv"]).resolve())
    raise ConfigError("pool needs either a 'synthetic' or a 'csv' entry")


def parse_experiment_config(doc: dict, base_dir=Path(".")) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    Relative paths resolve against base_dir (the config file's directory).
    """
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    with _section("design"):
        fields = _given(dict(doc.get("design", {})), "m", "covariate_levels", "min_prop",
                        "replicates")
        if "master_seed" in doc:
            fields["seed"] = doc["master_seed"]
        try:
            design = DesignConfig(**fields)
        except DesignError as exc:  # the document calls the seed master_seed
            raise DesignError(re.sub("^seed ", "master_seed ", str(exc))) from None
    with _section("sampling"):
        sampling = SamplingConfig(**_given(dict(doc.get("sampling", {})),
                                           "train_frac", "test_frac"))

    with _section("classifiers"):
        classifiers = _level_map(_require(doc, "classifiers"))
    for level, sub in classifiers.items():
        with _section(f"classifiers[{level:g}]"):
            classifiers[level] = _parse_classifier(sub)
    with _section("pools"):
        pools = _level_map(_require(doc, "pools"))
    for level, sub in pools.items():
        with _section(f"pools[{level:g}]"):
            pools[level] = _parse_pool(sub, base_dir)

    config = ExperimentConfig(design=design, sampling=sampling, classifiers=classifiers,
                              pool_specs=pools, **_given(doc, "scenarios"))
    with _section("output_dir"):
        return replace(config, output_dir=base_dir / doc.get("output_dir", config.output_dir))


def with_master_seed(config: ExperimentConfig, seed) -> ExperimentConfig:
    return replace(config, design=replace(config.design, seed=seed))
