"""Experiment configuration and end-to-end execution of a run plan.

Each run instance samples its split, trains the classifier mapped to its
algorithm covariate level on the pool mapped to its dataset covariate
level, and scores the test set into per-class AUCs. Instances derive all
randomness from their own seed, so any run reproduces in isolation, and
neither the batch a run executes in nor the worker pool's scheduling can
change results.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .classifiers import (ClassifierSpec, SyntheticDataConfig, default_class_means,
                          generate_pool, train_and_score_batch)
from .design import (ALL_SCENARIOS, DesignConfig, DesignError, RunPlan, RunSpec,
                     TestScenario, repeated)
from .metrics import MetricsError, RunOutcome, aucs_ovr
from .sampling import (DatasetPool, SamplingConfig, SamplingError, class_counts,
                       compose_split, load_pool_csv, split_sizes)
from .seeding import generator

# runs of one (classifier, pool) group that execute together, one batch per
# worker task
BATCH_SIZE = 8
# workers fork on Linux, the start method every result byte and timing was
# measured under; elsewhere the interpreter's default, as fork is unsafe on macOS
START_METHOD = "fork" if sys.platform == "linux" else None


class ConfigError(ValueError):
    pass


_TWO_COVARIATES = ("the pipeline expects two covariates: the classifier level and "
                   "the pool level")


@dataclass(frozen=True)
class PoolSpec:
    """A pool from exactly one source, a synthetic config or a CSV file;
    otherwise raises ConfigError."""

    synthetic: SyntheticDataConfig = None
    csv_path: Path = None

    def __post_init__(self):
        sources = sum(source is not None for source in (self.synthetic, self.csv_path))
        if sources > 1:
            raise ConfigError("pool takes either a 'synthetic' or a 'csv' entry, not both")
        if not sources:
            raise ConfigError("pool needs either a 'synthetic' or a 'csv' entry")

    def materialize(self) -> DatasetPool:
        if self.synthetic is not None:
            return generate_pool(self.synthetic)
        return load_pool_csv(self.csv_path)


@dataclass
class ExperimentConfig:
    """Everything one experiment needs: design, sizing, level assignments.

    The design has two covariates or more. Every level of the classifier
    covariate z1 needs a classifier, and every level of the pool covariate
    z2 a pool, with no entry for a level the design does not have; the
    scenarios, parsed by `TestScenario.parse`, are a nonempty tuple.
    Otherwise raises ConfigError.
    """

    design: DesignConfig
    sampling: SamplingConfig
    classifiers: dict
    pool_specs: dict
    scenarios: tuple = ALL_SCENARIOS
    output_dir: Path = Path("out")

    def __post_init__(self):
        if self.design.h < 2:
            raise ConfigError(_TWO_COVARIATES)
        sections = (("classifiers", self.classifiers), ("pools", self.pool_specs))
        for k, (name, entries) in zip(range(self.design.h), sections):
            levels = self.design.covariate_levels[k]
            for level in levels:
                if level not in entries:
                    raise ConfigError(f"{name}: no entry for z{k + 1} level {level:g}")
            for level in entries:  # no run would read it
                if level not in levels:
                    raise ConfigError(f"{name}: level {level:g} is not a z{k + 1} level "
                                      f"(levels {', '.join(f'{v:g}' for v in levels)})")
        with _section("scenarios"):
            if not isinstance(self.scenarios, (list, tuple)):
                raise ConfigError(f"expected a list of scenario names, got {self.scenarios!r}")
            self.scenarios = tuple(map(TestScenario.parse, self.scenarios))
            if not self.scenarios:
                raise ConfigError("the list must be nonempty")
            repeats = repeated(self.scenarios)
            if repeats:
                raise ConfigError(f"scenario {repeats[0].value} is listed twice")

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
    scored = train_and_score_batch(classifier, [split for _, split in drawn], pool)
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
    """Worker count: the argument, by default the CPUs this process may run on."""
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _execute_planned(pools, classifiers, sampling, specs):
    """execute_batch on the classifier and the pool of the batch's (z1, z2) group."""
    z1, z2 = specs[0].covariates[:2]
    return execute_batch(specs, pools[z2], classifiers[z1], sampling)


# (pools, classifiers, sampling), set by _init_worker in each worker process
_worker_state = ()


def _init_worker(*state):
    global _worker_state
    _worker_state = state


def _execute_in_worker(specs):
    return _execute_planned(*_worker_state, specs)


def plan_batches(runs):
    """The runs grouped by (classifier level, pool level) in plan order, each
    group cut into batches of BATCH_SIZE."""
    groups = {}
    for spec in runs:
        groups.setdefault(spec.covariates[:2], []).append(spec)
    return [group[start:start + BATCH_SIZE] for group in groups.values()
            for start in range(0, len(group), BATCH_SIZE)]


def prepare_plan(plan: RunPlan, config: ExperimentConfig, jobs=1):
    """Check the plan against the config; return the call that runs it.

    Checks that every pool holds exactly the labels 1..m, pools share one
    feature width and give both sides of a split a row, every run has a
    classifier, a matching pool, a scenario and no test count above its
    class's pool size (once per pool and test mixture), and jobs >= 1;
    raises ConfigError or DesignError before any run. The call runs
    `plan_batches` on min(jobs, batches) workers, serially for one, and
    returns (outcomes, failures) by run_id, whatever the batches or workers.
    """
    if plan.config.h < 2:
        raise ConfigError(_TWO_COVARIATES)
    pools = config.materialize_pools()
    m = plan.config.m
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
    batches = plan_batches(plan.runs)
    workers = min(resolve_jobs(jobs), len(batches))
    state = (pools, config.classifiers, config.sampling)

    def run():
        if workers <= 1:
            results = list(map(partial(_execute_planned, *state), batches))
        else:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context(START_METHOD),
                                     initializer=_init_worker, initargs=state) as executor:
                results = list(executor.map(_execute_in_worker, batches))
        ordered = sorted((r for batch in results for r in batch), key=lambda r: r.run_id)
        return ([r for r in ordered if isinstance(r, RunOutcome)],
                [r for r in ordered if isinstance(r, RunFailure)])
    return run


def simulate_plan(plan: RunPlan, config: ExperimentConfig, jobs=1):
    """Execute every run instance: `prepare_plan`'s checks, then its run."""
    return prepare_plan(plan, config, jobs)()


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


def _fields(doc, *keys):
    """`_given(doc, *keys)` of the object `doc`, which holds no other key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object, got {doc!r}")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}; allowed: {', '.join(keys)}")
    return _given(doc, *keys)


def _level_map(doc):
    if not isinstance(doc, dict):
        raise ConfigError("expected an object keyed by covariate level")
    levels = {float(level): value for level, value in doc.items()}
    if len(levels) < len(doc):
        raise ConfigError(f"level {repeated(list(map(float, doc)))[0]:g} is listed twice")
    return levels


def _parse_classifier(doc):
    fields = _fields(doc, "kind", "hyper", "command")
    _require(doc, "kind")
    if not isinstance(fields.get("hyper", {}), dict):
        raise ConfigError("hyper must be an object of numbers")
    return ClassifierSpec(**fields)


def _parse_synthetic(doc):
    """`separation`, a JSON-only key, scales the one-hot default means once
    the other fields have passed, so each other error reads as it would
    alone; a pool that also gives `class_means` is refused there."""
    fields = _fields(doc, "m", "d", "n_per_class", "class_means", "separation", "noise_scale",
                     "separability_boost", "seed")
    for key in ("m", "d", "n_per_class"):
        _require(doc, key)
    fields.pop("separation", None)
    config = SyntheticDataConfig(**fields)
    if "separation" not in doc:
        return config
    if "class_means" in doc:
        raise ConfigError("give either 'class_means' or 'separation', not both")
    return replace(config, class_means=default_class_means(config.m, config.d,
                                                           doc["separation"]))


def _parse_pool(doc, base_dir):
    fields = _fields(doc, "synthetic", "csv")
    return PoolSpec(
        synthetic=_parse_synthetic(fields["synthetic"]) if "synthetic" in fields else None,
        csv_path=(base_dir / fields["csv"]).resolve() if "csv" in fields else None)


def parse_experiment_config(doc: dict, base_dir=Path(".")) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    Relative paths resolve against base_dir (the config file's directory).
    """
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _fields(doc, "design", "sampling", "classifiers", "pools", "scenarios", "output_dir",
            "master_seed")
    with _section("design"):
        fields = _fields(doc.get("design", {}), "m", "covariate_levels", "min_prop",
                         "replicates")
        if "master_seed" in doc:
            fields["seed"] = doc["master_seed"]
        try:
            design = DesignConfig(**fields)
        except DesignError as exc:  # the document calls the seed master_seed
            raise DesignError(re.sub("^seed ", "master_seed ", str(exc))) from None
    with _section("sampling"):
        sampling = SamplingConfig(**_fields(doc.get("sampling", {}), "train_frac", "test_frac"))

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
