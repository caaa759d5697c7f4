"""In-memory spans and the traced replay of each CLI stage.

The replay makes, from the benchmark's side, the public calls that the CLI
stage makes, with a span around each call, and writes the same files. The
benchmark checks those files against the untraced CLI's byte for byte, so a
replay that drifts from the program is caught rather than measured.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from mixrobust import cli
from mixrobust.classifiers import ClassifierError, ExternalRunnerError, train_and_score
from mixrobust.design import build_run_plan, write_plan_csv
from mixrobust.fileio import atomic_write_bytes
from mixrobust.metrics import (MetricsError, RunOutcome, auc_ovr, read_outcomes_csv,
                               write_outcomes_csv)
from mixrobust.mixmodel import (build_design_matrix, dataset_from_outcomes, fit_ols,
                                fit_report, write_fit_report)
from mixrobust.pipeline import parse_experiment_config, simulate_plan
from mixrobust.sampling import SamplingError, compose_split
from mixrobust.seeding import generator
from mixrobust.shapley import shap_report, write_phi_csv, write_shap_json
from mixrobust.ternary import (TernaryGrid, grid_predict, render_ternary, simplex_lattice,
                               write_grid_csv)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans kept in memory; `write` dumps them as JSON lines at the end."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        span = Span(next(self._ids), name, 0.0, 0.0,
                    self._stack[-1].id if self._stack else None, self.workload, attrs)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def children(self, span):
        return [s for s in self.spans if s.parent == span.id]

    def write(self, path):
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


_GUARDED = (SamplingError, ClassifierError, MetricsError, ExternalRunnerError)


def load_config(tracer, config_path, out_dir):
    doc = json.loads(config_path.read_text())
    config = tracer.call("pipeline.parse_experiment_config", parse_experiment_config,
                         doc, base_dir=config_path.parent)
    return replace(config, output_dir=out_dir)


def replay_design(tracer, config):
    plan = tracer.call("design.build_run_plan", build_run_plan,
                       config.design, config.scenarios)
    tracer.call("design.write_plan_csv", write_plan_csv, plan,
                config.output_dir / "plan.csv")
    return plan


def replay_run(tracer, spec, pool, classifier, sampling):
    """One run as `execute_run` makes it, one span per public call."""
    with tracer.span("pipeline.execute_run") as run_span:
        try:
            split = tracer.call("sampling.compose_split", compose_split, pool,
                                spec.train_mixture, spec.test_mixture, sampling,
                                train_rng=generator(spec.seed, "train"),
                                test_rng=generator(spec.seed, "test"))
            run_span.attrs.update(train_rows=int(split.train_indices.size),
                                  distinct_train_rows=int(np.unique(split.train_indices).size),
                                  test_rows=int(split.test_indices.size))
            scores = tracer.call(f"classifiers.train_and_score.{classifier.kind.value}",
                                 train_and_score, classifier.kind, split, pool,
                                 hyper=classifier.hyper_dict, command=classifier.command)
            labels = pool.labels[split.test_indices]
            aucs = [tracer.call("metrics.auc_ovr", auc_ovr, scores, labels, j)
                    for j in range(1, pool.m + 1)]
            return tracer.call("metrics.RunOutcome.from_aucs", RunOutcome.from_aucs,
                               spec.run_id, spec.replicate, spec.scenario,
                               spec.covariates, spec.train_mixture, aucs)
        except _GUARDED as exc:
            run_span.attrs["failed"] = str(exc)
            return None


def replay_simulate(tracer, config):
    """`simulate` made serially: plan, pools, every run, outcomes."""
    plan = replay_design(tracer, config)
    pools = {level: tracer.call("classifiers.generate_pool", spec.materialize)
             for level, spec in config.pool_specs.items()}
    outcomes = [replay_run(tracer, spec, pools[spec.covariates[1]],
                           config.classifier_for(spec), config.sampling)
                for spec in plan.runs]
    outcomes = [o for o in outcomes if o is not None]
    tracer.call("metrics.write_outcomes_csv", write_outcomes_csv, outcomes,
                config.design.m, config.design.h, config.output_dir / "outcomes.csv")
    return plan, pools


def _fits(tracer, config):
    """Yield (scenario, response, fit, matrix) as the analysis stages fit them."""
    outcomes = tracer.call("metrics.read_outcomes_csv", read_outcomes_csv,
                           config.output_dir / "outcomes.csv")
    tracer.spans[-1].attrs["rows"] = len(outcomes)
    for scenario in config.scenarios:
        rows = [out for out in outcomes if out.scenario is scenario]
        for response in cli.RESPONSES:
            data = tracer.call("mixmodel.dataset_from_outcomes", dataset_from_outcomes,
                               rows, response)
            matrix = tracer.call("mixmodel.build_design_matrix", build_design_matrix, data)
            tracer.spans[-1].attrs["rows"] = matrix.n
            fit = tracer.call("mixmodel.fit_ols", fit_ols, matrix, data.y)
            yield scenario, response, fit, matrix


def replay_analyze(tracer, config):
    for scenario, response, fit, _ in _fits(tracer, config):
        report = tracer.call("mixmodel.fit_report", fit_report, fit, scenario, response)
        tracer.call("mixmodel.write_fit_report", write_fit_report, report,
                    config.output_dir / f"fit_{response}_{scenario.value}.json")


def replay_shap(tracer, config):
    for scenario, response, fit, matrix in _fits(tracer, config):
        report = tracer.call("shapley.shap_report", shap_report, fit, matrix)
        base = f"{response}_{scenario.value}"
        tracer.call("shapley.write_shap_json", write_shap_json, report,
                    config.output_dir / f"shap_{base}.json",
                    scenario=scenario.value, response=response)
        tracer.call("shapley.write_phi_csv", write_phi_csv, report,
                    config.output_dir / f"shap_phi_{base}.csv")


# cmd_contour's defaults
CONTOUR_Q = 100
CONTOUR_LEVELS = 10


def replay_contour(tracer, config):
    design = config.design
    ternary = design.m == 3
    if ternary:
        grid = tracer.call("ternary.TernaryGrid.build", TernaryGrid.build,
                           q=CONTOUR_Q, min_prop=design.min_prop)
    else:
        q = min(CONTOUR_Q, 20)
        grid = TernaryGrid(q=q, min_prop=design.min_prop,
                           points=tracer.call("ternary.simplex_lattice", simplex_lattice,
                                              q, design.m, design.min_prop))
    for scenario, response, fit, _ in _fits(tracer, config):
        for z in itertools.product(*design.covariate_levels):
            base = f"{response}_{scenario.value}_z{''.join(f'{v:g}' for v in z)}"
            surface = tracer.call("ternary.grid_predict", grid_predict, fit, grid, z)
            tracer.spans[-1].attrs["points"] = len(grid.points)
            surface = replace(surface, response=response, scenario=scenario.value)
            tracer.call("ternary.write_grid_csv", write_grid_csv, surface,
                        config.output_dir / f"grid_{base}.csv")
            if ternary:
                svg = tracer.call("ternary.render_ternary", render_ternary, surface,
                                  levels=CONTOUR_LEVELS)
                tracer.spans[-1].attrs["svg_bytes"] = len(svg)
                tracer.call("fileio.atomic_write_bytes", atomic_write_bytes,
                            config.output_dir / f"contour_{base}.svg", svg)


def quiet():
    """Swallow the CLI's progress prints so only the benchmark's lines remain."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def replay_report(tracer, config, config_path):
    """`report` only formats the fit JSONs: it runs as the CLI itself, all glue."""
    with quiet():
        return cli.main(["report", "--config", str(config_path),
                         "--out", str(config.output_dir)])


REPLAYS = {"design": replay_design, "simulate": replay_simulate,
           "analyze": replay_analyze, "shap": replay_shap, "contour": replay_contour}


def replay_stage(tracer, stage, config_path, out_dir):
    """One CLI stage under a `cli.<stage>` span; returns the stage's exit code."""
    with tracer.span(f"cli.{stage}"):
        config = load_config(tracer, config_path, out_dir)
        if stage == "report":
            return replay_report(tracer, config, config_path)
        REPLAYS[stage](tracer, config)
        return 0


def time_simulate_plan(tracer, config_path, jobs):
    """simulate_plan alone at the given worker count; returns the outcomes."""
    config = load_config(tracer, config_path, config_path.parent)
    plan = build_run_plan(config.design, config.scenarios)
    with tracer.span(f"pipeline.simulate_plan.jobs{jobs}", jobs=jobs):
        outcomes, failures = simulate_plan(plan, config, jobs=jobs)
    return outcomes, failures, config
