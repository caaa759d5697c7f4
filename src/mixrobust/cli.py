"""mixrobust command line: one subcommand per pipeline stage, listed in _STAGES.

Every subcommand reads one JSON experiment config; stages exchange data
through the CSV/JSON files written under the output directory. Exit codes:
1 usage, 2 config, 3 I/O, 4 numerical failure or a dead worker process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial
from pathlib import Path

from .blas import single_thread
from .classifiers import ClassifierKind, resolve_hyper
from .design import DesignError, TestScenario, build_run_plan, write_plan_csv
from .fileio import atomic_write_text, csv_text, read_csv, write_json
from .metrics import MetricsError, read_outcome_table, write_outcomes_csv
from .mixmodel import (RESPONSES, ModelError, build_design_matrix, dataset_from_table,
                       factorize, fit_report, load_scipy, write_fit_report)
from .pipeline import (ConfigError, ExperimentConfig, checked_pools,
                       parse_experiment_config, resolve_jobs, simulate_plan,
                       with_master_seed)
from .shapley import shap_report, write_phi_csv, write_shap_json
from .ternary import (ContourError, TernaryGrid, covariate_tag, grid_surfaces,
                      surface_filenames, write_grid_csv, write_ternary_svg)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

CONTOUR_Q = 100  # grid steps per simplex edge
FAILURES_HEADER = ["run_id", "replicate", "scenario", "reason"]


class CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliFailure(EXIT_USAGE, message)


def build_parser():
    parser = _Parser(prog="mixrobust",
                     description="mixture-design experiments for classifier "
                                 "robustness under label imbalance and shift")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (help_text, _) in _STAGES.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config JSON")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--jobs", type=int, default=None, help="worker pool size")
        cmd.add_argument("--scenario", default=None,
                         choices=[s.value for s in TestScenario],
                         help="restrict to one test scenario")
    return parser


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    # ConfigError, JSONDecodeError and UnicodeDecodeError are ValueErrors
    try:
        config = parse_experiment_config(json.loads(path.read_text()), base_dir=path.parent)
    except (OSError, ValueError) as exc:
        raise CliFailure(EXIT_CONFIG, f"config {path}: {exc}") from None
    if args.seed is not None:
        config = with_master_seed(config, args.seed)
    if args.out is not None:
        config = replace(config, output_dir=Path(args.out))
    return config


def _scenarios(config, args):
    if args.scenario is None:
        return config.scenarios
    wanted = TestScenario.parse(args.scenario)
    if wanted not in config.scenarios:
        raise CliFailure(EXIT_CONFIG,
                         f"scenario {wanted.value} is not in the config's scenario list")
    return (wanted,)


def _build_plan(config, args):
    # the full plan fixes run ids and seeds; --scenario filters afterwards
    # so a partial run reproduces the matching subset of a full run
    plan = build_run_plan(config.design, config.scenarios)
    keep = set(_scenarios(config, args))
    if len(keep) != len(config.scenarios):
        plan = replace(plan, runs=[r for r in plan.runs if r.scenario in keep])
    return plan


def cmd_design(config, args):
    plan = _build_plan(config, args)
    path = config.output_dir / "plan.csv"
    write_plan_csv(plan, path)
    print(f"wrote {path} ({len(plan)} run instances)")
    return EXIT_OK


def _run_metadata(config):
    """Resolved settings snapshot so any run reproduces from the record."""
    classifiers = {}
    for level, spec in sorted(config.classifiers.items()):
        entry = {"kind": spec.kind.value,
                 "hyper": resolve_hyper(spec.kind, spec.hyper_dict)}
        if spec.command:
            entry["command"] = list(spec.command)
        classifiers[f"{level:g}"] = entry
    return {
        "master_seed": config.design.seed,
        "design": {"m": config.design.m, "min_prop": config.design.min_prop,
                   "replicates": config.design.replicates,
                   "covariate_levels": [list(lv) for lv in
                                        config.design.covariate_levels]},
        "sampling": {"train_frac": config.sampling.train_frac,
                     "test_frac": config.sampling.test_frac},
        "classifiers": classifiers,
        "scenarios": [s.value for s in config.scenarios],
    }


def _execute(config, args, allow_external):
    for level, spec in config.classifiers.items():
        if spec.kind is ClassifierKind.EXTERNAL and not allow_external:
            raise CliFailure(EXIT_CONFIG,
                             f"classifiers[{level:g}] is external; use `run`, "
                             "not `simulate`")
    plan = _build_plan(config, args)
    # every config check runs before the first file is written
    pools = checked_pools(plan, config)
    jobs = resolve_jobs(args.jobs)
    write_plan_csv(plan, config.output_dir / "plan.csv")
    write_json(config.output_dir / "run_metadata.json", _run_metadata(config))
    # an earlier run's results no longer describe this plan, even if this run
    # stops before it writes its own
    path, failures_path = config.output_dir / "outcomes.csv", config.output_dir / "failures.csv"
    for stale in (path, failures_path):
        stale.unlink(missing_ok=True)
    try:
        outcomes, failures = simulate_plan(plan, config, jobs=jobs, pools=pools)
    except BrokenProcessPool:
        raise CliFailure(EXIT_NUMERIC, "a worker process died; this run wrote no "
                         "outcomes") from None
    write_outcomes_csv(outcomes, config.design.m, config.design.h, path)
    print(f"wrote {path} ({len(outcomes)} outcomes)")
    if not failures:
        return EXIT_OK
    atomic_write_text(failures_path, csv_text(
        FAILURES_HEADER,
        ([f.run_id, f.replicate, f.scenario.value, f.reason] for f in failures)))
    print(f"{len(failures)} runs failed; see {failures_path}", file=sys.stderr)
    return EXIT_NUMERIC


def _failed_scenarios(path):
    """The scenarios of the runs that the failures.csv at path lists; none
    when there is no such file."""
    def layout(header):
        return FAILURES_HEADER, lambda row: TestScenario.parse(row[2])
    try:
        return set(read_csv(path, MetricsError, layout))
    except FileNotFoundError:
        return set()
    except OSError as exc:
        raise MetricsError(f"cannot read {path}: {exc}") from None


def _fits(config, args):
    """Yield (scenario, response, fit, matrix) for each selected scenario and
    each response. The outcomes' m and h must be the design's, and every
    scenario is checked for rows, before the first fit. A fit's ModelError
    names its scenario and response."""
    load_scipy()  # the pin reaches only the OpenBLAS libraries already mapped
    single_thread()
    path = config.output_dir / "outcomes.csv"
    try:
        outcomes = read_outcome_table(path)
    except OSError as exc:
        raise CliFailure(EXIT_IO, f"cannot read outcomes {path}: {exc}; "
                         "run `simulate` or `run` first") from None
    design = config.design
    m, h = outcomes.train_mixture.shape[1], outcomes.covariates.shape[1]
    if (m, h) != (design.m, design.h):
        raise CliFailure(EXIT_IO, f"{path} holds outcomes of m={m} mixture parts and "
                         f"h={h} covariates, but the design has m={design.m} and "
                         f"h={design.h}; run `simulate` or `run` again")
    groups = []
    for scenario in _scenarios(config, args):
        rows = outcomes.where(outcomes.scenario == scenario)
        if not len(rows):
            failures = path.with_name("failures.csv")
            if scenario in _failed_scenarios(failures):
                raise CliFailure(EXIT_NUMERIC, f"every run of scenario {scenario.value} "
                                 f"failed; see {failures}")
            raise CliFailure(EXIT_IO, f"outcomes file has no rows for scenario "
                             f"{scenario.value}")
        groups.append((scenario, rows))
    for scenario, rows in groups:
        factors = None  # both responses share the scenario's model matrix and its QR
        for response in RESPONSES:
            try:
                data = dataset_from_table(rows, response)
                if factors is None:
                    factors = factorize(build_design_matrix(data))
                fit = factors.fit(data.y)
            except ModelError as exc:
                raise ModelError(f"scenario {scenario.value}, response {response}: "
                                 f"{exc}") from None
            yield scenario, response, fit, factors.matrix


def _fit_stage(write, config, args):
    # the fits stay lazy: a fit that fails leaves the files written before it
    write(config, _fits(config, args))
    return EXIT_OK


def _report_path(config, kind, response, scenario):
    """The JSON that `analyze` (kind "fit") or `shap` (kind "shap") writes for
    one fit, and that `report` reads."""
    return config.output_dir / f"{kind}_{response}_{scenario.value}.json"


def write_fit_reports(config, fits):
    for scenario, response, fit, _ in fits:
        path = _report_path(config, "fit", response, scenario)
        write_fit_report(fit_report(fit, scenario, response), path)
        print(f"wrote {path}")


def write_shap_reports(config, fits):
    for scenario, response, fit, matrix in fits:
        report = shap_report(fit, matrix)
        path = _report_path(config, "shap", response, scenario)
        write_shap_json(report, path, scenario=scenario.value, response=response)
        write_phi_csv(report, config.output_dir / f"shap_phi_{response}_{scenario.value}.csv")
        print(f"wrote {path}")


def write_contours(config, fits):
    design = config.design
    ternary = design.m == 3
    # no ternary projection beyond 3 classes: coarse lattice, CSV only; a
    # lattice with no point above the floor is a config error
    grid = TernaryGrid.build(q=CONTOUR_Q if ternary else min(CONTOUR_Q, 20),
                             min_prop=design.min_prop, m=design.m)
    # each covariate combination needs file names of its own
    combos = {}
    for z in itertools.product(*design.covariate_levels):
        first = combos.setdefault(covariate_tag(z), z)
        if first != z:
            raise ContourError(f"covariate levels {first} and {z} would both write "
                               f"contour files tagged {covariate_tag(z)}")
    for scenario, response, fit, _ in fits:
        for surface in grid_surfaces(fit, grid, combos.values()):
            grid_name, svg_name = surface_filenames(response, scenario.value,
                                                    surface.covariates)
            surface = replace(surface, response=response, scenario=scenario.value)
            write_grid_csv(surface, config.output_dir / grid_name)
            if ternary:
                write_ternary_svg(surface, config.output_dir / svg_name)
        print(f"wrote contour outputs for {response} / {scenario.value}")


def _fmt_p(p):
    if p is None:
        return "   n/a"
    return "<0.001" if p < 0.001 else f"{p:6.3f}"


def _fmt_t(t):
    return "    n/a" if t is None else f"{t:8.3f}"


def _report_block(scenario, mean_rep, sd_rep):
    lines = [f"== {scenario.value.capitalize()} scenario " + "=" * 50]
    header = (f"{'Term':<8}" + f"{'Est':>10}{'SE':>10}{'t':>9}{'p':>8}"
              + "   |" + f"{'Est':>10}{'SE':>10}{'t':>9}{'p':>8}")
    lines.append(f"{'':8}{'Mean AUC':>28}{'':9}{'Log SD':>31}")
    lines.append(header)

    def _row(name, left, right):
        return (f"{name:<8}"
                f"{left['estimate']:>10.4f}{left['se']:>10.4f}"
                f"{_fmt_t(left['t']):>9}{_fmt_p(left['p']):>8}   |"
                f"{right['estimate']:>10.4f}{right['se']:>10.4f}"
                f"{_fmt_t(right['t']):>9}{_fmt_p(right['p']):>8}")

    for left, right in zip(mean_rep["terms"], sd_rep["terms"]):
        lines.append(_row(left["label"], left, right))
    lines.append("-- Implied effect " + "-" * 75)
    for left, right in zip(mean_rep["implied_effects"], sd_rep["implied_effects"]):
        lines.append(_row(left["covariate"], left, right))
    lines.append(f"n = {mean_rep['n']}, residual df = {mean_rep['df']}")
    return lines


def _report_lines(paths, format_docs, stage):
    """format_docs(*docs) for the JSON files at paths, which `stage` writes;
    a file that cannot be read, decoded or formatted exits 3 naming it."""
    docs = []
    for path in paths:
        try:
            docs.append(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            raise CliFailure(EXIT_IO, f"cannot read {path}: {exc}; `{stage}` writes it "
                             "and stops at the first fit that fails") from None
    try:
        return format_docs(*docs)
    except (KeyError, TypeError, ValueError) as exc:
        names = " / ".join(map(str, paths))
        raise CliFailure(EXIT_IO, f"malformed report file {names}: {exc!r}") from None


def _shap_lines(doc):
    return (["Attribution (mean AUC), descending:"]
            + [f"  {entry['label']:<8}{entry['importance']:>10.4f}"
               for entry in doc["importances"]] + [""])


def cmd_report(config, args):
    lines = ["mixrobust experiment summary", ""]
    for scenario in _scenarios(config, args):
        fit_paths = [_report_path(config, "fit", response, scenario)
                     for response in RESPONSES]
        lines.extend(_report_lines(fit_paths, partial(_report_block, scenario), "analyze"))
        lines.append("")
        shap_path = _report_path(config, "shap", "mean_auc", scenario)
        if shap_path.exists():
            lines.extend(_report_lines([shap_path], _shap_lines, "shap"))
    text = "\n".join(lines) + "\n"
    path = config.output_dir / "report.txt"
    atomic_write_text(path, text)
    sys.stdout.write(text)
    print(f"wrote {path}")
    return EXIT_OK


# each subcommand's help text and stage(config, args), in pipeline order
_STAGES = {
    "design": ("write the expanded run plan CSV", cmd_design),
    "simulate": ("execute built-in classifiers and write outcomes",
                 partial(_execute, allow_external=False)),
    "run": ("execute runs via the external-runner protocol",
            partial(_execute, allow_external=True)),
    "analyze": ("fit both responses per scenario, write fit reports",
                partial(_fit_stage, write_fit_reports)),
    "shap": ("write per-column attribution reports", partial(_fit_stage, write_shap_reports)),
    "contour": ("write prediction grids and ternary SVG plots",
                partial(_fit_stage, write_contours)),
    "report": ("bundle fit reports into one text summary", cmd_report),
}


# the exit code of each error class a stage raises; the message is the error's
_EXIT_CODES = {ConfigError: EXIT_CONFIG, ContourError: EXIT_CONFIG, DesignError: EXIT_CONFIG,
               MetricsError: EXIT_IO, ModelError: EXIT_NUMERIC}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliFailure(EXIT_USAGE, "missing subcommand; see mixrobust --help")
        config = _load_config(args)
        try:
            return _STAGES[args.command][1](config, args)
        except tuple(_EXIT_CODES) as exc:
            code = next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
            raise CliFailure(code, str(exc)) from None
        except OSError as exc:
            # a writer's error; the readers word their own. A rename names
            # its target second.
            path = exc.filename2 or exc.filename
            raise CliFailure(EXIT_IO, f"cannot write {path}: {exc.strerror}" if path
                             else f"I/O error: {exc}") from None
    except CliFailure as fail:
        print(f"mixrobust: error: {fail.message}", file=sys.stderr)
        return fail.code
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
