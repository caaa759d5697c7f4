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

from .blas import set_openblas_threads
from .classifiers import ClassifierKind, resolve_hyper
from .design import DesignError, TestScenario, build_run_plan, write_plan_csv
from .fileio import atomic_write_text, csv_text, read_csv, write_json
from .metrics import MetricsError, read_outcome_table, write_outcomes_csv
from .mixmodel import (RESPONSES, ModelError, build_design_matrix, dataset_from_table,
                       factorize, fit_report, fitted_terms, load_scipy, write_fit_report)
from .pipeline import (ConfigError, ExperimentConfig, parse_experiment_config,
                       prepare_plan, with_master_seed)
from .shapley import shap_report, write_phi_csv, write_shap_json
from .ternary import (ContourError, TernaryGrid, covariate_tags, grid_surfaces,
                      write_grid_csv, write_ternary_svg)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

CONTOUR_Q = 100  # grid steps per simplex edge
FAILURES_HEADER = ["run_id", "replicate", "scenario", "reason"]

# the files the stages write under the output directory (see _STAGES), as
# patterns over {response}, {scenario} and {tag} (ternary.covariate_tag)
PLAN = "plan.csv"
RUN_METADATA = "run_metadata.json"
OUTCOMES = "outcomes.csv"
FAILURES = "failures.csv"
FIT = "fit_{response}_{scenario}.json"
SHAP = "shap_{response}_{scenario}.json"
SHAP_PHI = "shap_phi_{response}_{scenario}.csv"
GRID = "grid_{response}_{scenario}_{tag}.csv"
CONTOUR_SVG = "contour_{response}_{scenario}_{tag}.svg"
REPORT = "report.txt"


def _path(config, name, response=None, scenario=None, tag=None):
    """The output file `name`, a pattern above, of a response, TestScenario and tag."""
    return config.output_dir / name.format(response=response, tag=tag,
                                           scenario=scenario and scenario.value)


def _writers(name):
    """The stages that write the file `name`, as in "`simulate` or `run`"."""
    return " or ".join(f"`{stage}`" for stage, (*_, files) in _STAGES.items() if name in files)


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
    for name, (help_text, *_) in _STAGES.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config JSON")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--jobs", type=int, default=None,
                         help="worker pool size, at most one worker per batch "
                              "(default: the CPUs this process may run on)")
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
    path = _path(config, PLAN)
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
    run = prepare_plan(plan, config, args.jobs)
    write_plan_csv(plan, _path(config, PLAN))
    write_json(_path(config, RUN_METADATA), _run_metadata(config))
    # an earlier run's results, and all the later stages made from them, no
    # longer describe this plan, even if this run stops before it writes its own
    later = list(_STAGES.values())[list(_STAGES).index("run") + 1:]
    for name in (OUTCOMES, FAILURES, *(name for *_, files in later for name in files)):
        for response, scenario in itertools.product(RESPONSES, TestScenario):
            for old in config.output_dir.glob(_path(config, name, response, scenario, "*").name):
                old.unlink(missing_ok=True)
    path, failures_path = _path(config, OUTCOMES), _path(config, FAILURES)
    try:
        outcomes, failures = run()
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


def _scenario_error(scenario, response, exc):
    return ModelError(f"scenario {scenario.value}, response {response}: {exc}")


def _outcome_data(config, args):
    """[(scenario, datasets)] for each selected scenario, from outcomes.csv,
    with one AnalysisDataset per response. The outcomes' m and h must be the
    design's, and every scenario must have rows, each of them finite; a
    dataset's ModelError names its scenario and response. Then the run's
    recorded settings must be config's."""
    path = _path(config, OUTCOMES)
    try:
        outcomes = read_outcome_table(path)
    except OSError as exc:
        raise CliFailure(EXIT_IO, f"cannot read outcomes {path}: {exc}; "
                         f"run {_writers(OUTCOMES)} first") from None
    design = config.design
    m, h = outcomes.train_mixture.shape[1], outcomes.covariates.shape[1]
    if (m, h) != (design.m, design.h):
        raise CliFailure(EXIT_IO, f"{path} holds outcomes of m={m} mixture parts and "
                         f"h={h} covariates, but the design has m={design.m} and "
                         f"h={design.h}; run {_writers(OUTCOMES)} again")
    data = []
    for scenario in _scenarios(config, args):
        rows = outcomes.where(outcomes.scenario == scenario)
        if not len(rows):
            failures = _path(config, FAILURES)
            if scenario in _failed_scenarios(failures):
                raise CliFailure(EXIT_NUMERIC, f"every run of scenario {scenario.value} "
                                 f"failed; see {failures}")
            raise CliFailure(EXIT_IO, f"outcomes file has no rows for scenario "
                             f"{scenario.value}")
        datasets = []
        for response in RESPONSES:
            try:
                datasets.append(dataset_from_table(rows, response))
            except ModelError as exc:
                raise _scenario_error(scenario, response, exc) from None
        data.append((scenario, datasets))
    _check_run_metadata(config)
    return data


def _leaves(value, key=""):
    """{key path: leaf} for each leaf of a JSON value, in order."""
    if isinstance(value, dict):
        parts = [(part, f"{key}.{name}" if key else name) for name, part in value.items()]
    elif isinstance(value, list):
        parts = [(part, f"{key}[{i}]") for i, part in enumerate(value)]
    else:
        return {key: value}
    return {path: leaf for part in parts for path, leaf in _leaves(*part).items()}


_ABSENT = object()  # what a run_metadata.json key lacking on one side holds


def _check_run_metadata(config):
    """Exit 3 when the run_metadata.json that `simulate` or `run` wrote beside
    the outcomes records other settings than config's, naming the first
    differing key. The master seed may differ, and a missing file passes."""
    path = _path(config, RUN_METADATA)
    try:
        recorded = _leaves(json.loads(path.read_text()))
    except FileNotFoundError:
        return
    except (OSError, ValueError) as exc:
        raise CliFailure(EXIT_IO, f"cannot read {path}: {exc}") from None
    # through json, as the file went, so that both sides hold the same types
    expected = _leaves(json.loads(json.dumps(_run_metadata(config))))
    for leaves in (recorded, expected):
        leaves.pop("master_seed", None)
    for key in {**expected, **recorded}:
        was, now = (leaves.get(key, _ABSENT) for leaves in (recorded, expected))
        if was != now:
            was, now = ("nothing" if v is _ABSENT else json.dumps(v) for v in (was, now))
            raise CliFailure(EXIT_IO, f"{path} records {key} = {was}, but the config has "
                             f"{now}; run {_writers(RUN_METADATA)} again")


def _fits(config, args):
    """Yield (scenario, response, fit, matrix) for each selected scenario and
    each response, fitted from outcomes.csv once _outcome_data has checked
    every scenario. A fit's ModelError names its scenario and response."""
    load_scipy()  # the pin reaches only the OpenBLAS libraries already mapped
    set_openblas_threads(1)
    for scenario, datasets in _outcome_data(config, args):
        factors = None  # both responses share the scenario's model matrix and its QR
        for data in datasets:
            try:
                if factors is None:
                    factors = factorize(build_design_matrix(data))
                fit = factors.fit(data.y)
            except ModelError as exc:
                raise _scenario_error(scenario, data.response, exc) from None
            yield scenario, data.response, fit, factors.matrix


def _reported_fit(config, response, scenario):
    """The terms `analyze` reported for one fit; exit 3 unless they are the design's."""
    read = partial(fitted_terms, m=config.design.m, h=config.design.h)
    return _read_reports(config, FIT, scenario, [response], read)


# the fit stages stay lazy: a fit or report that fails leaves the files
# written before it
def cmd_analyze(config, args):
    for scenario, response, fit, _ in _fits(config, args):
        path = _path(config, FIT, response, scenario)
        write_fit_report(fit_report(fit, scenario, response), path)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_shap(config, args):
    for scenario, datasets in _outcome_data(config, args):
        # both responses' datasets share the mixtures and covariates
        matrix = build_design_matrix(datasets[0])
        for response in RESPONSES:
            fit = _reported_fit(config, response, scenario)
            if fit.n != matrix.n:
                raise CliFailure(EXIT_IO, f"{_path(config, FIT, response, scenario)} reports "
                                 f"a fit of n={fit.n} rows, but {_path(config, OUTCOMES)} "
                                 f"holds {matrix.n} of scenario {scenario.value}; run "
                                 f"{_writers(FIT)} again")
            report = shap_report(fit, matrix)
            path = _path(config, SHAP, response, scenario)
            write_shap_json(report, path, scenario=scenario.value, response=response)
            write_phi_csv(report, _path(config, SHAP_PHI, response, scenario))
            print(f"wrote {path}")
    return EXIT_OK


def cmd_contour(config, args):
    scenarios = _scenarios(config, args)
    _check_run_metadata(config)
    write_contours(config, ((scenario, response, _reported_fit(config, response, scenario))
                            for scenario in scenarios for response in RESPONSES))
    return EXIT_OK


def write_contours(config, fits):
    """Each (scenario, response, fit)'s grid CSVs, and for m = 3 its SVGs."""
    design = config.design
    ternary = design.m == 3
    # no ternary projection beyond 3 classes: coarse lattice, CSV only; a
    # lattice with no point above the floor is a config error
    grid = TernaryGrid.build(q=CONTOUR_Q if ternary else min(CONTOUR_Q, 20),
                             min_prop=design.min_prop, m=design.m)
    tags = covariate_tags(design.covariate_levels)
    for scenario, response, fit in fits:
        for tag, surface in zip(tags, grid_surfaces(fit, grid, tags.values())):
            surface = replace(surface, response=response, scenario=scenario.value)
            write_grid_csv(surface, _path(config, GRID, response, scenario, tag))
            if ternary:
                write_ternary_svg(surface, _path(config, CONTOUR_SVG, response, scenario, tag))
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


def _read_reports(config, name, scenario, responses, parse):
    """parse(*docs) for the JSON files `name` of scenario and each response; a
    file that cannot be read, decoded or parsed exits 3 naming it."""
    paths = [_path(config, name, response, scenario) for response in responses]
    docs = []
    for path in paths:
        try:
            docs.append(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            raise CliFailure(EXIT_IO, f"cannot read {path}: {exc}; {_writers(name)} writes "
                             "it and stops at the first fit that fails") from None
    try:
        return parse(*docs)
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
        lines.extend(_read_reports(config, FIT, scenario, RESPONSES, partial(_report_block, scenario)))
        lines.append("")
        if _path(config, SHAP, "mean_auc", scenario).exists():
            lines.extend(_read_reports(config, SHAP, scenario, ["mean_auc"], _shap_lines))
    text = "\n".join(lines) + "\n"
    path = _path(config, REPORT)
    atomic_write_text(path, text)
    sys.stdout.write(text)
    print(f"wrote {path}")
    return EXIT_OK


_EXECUTE_WRITES = (PLAN, RUN_METADATA, OUTCOMES, FAILURES)

# each subcommand's help text, stage(config, args) and the files it writes, in pipeline order
_STAGES = {
    "design": ("write the expanded run plan CSV", cmd_design, (PLAN,)),
    "simulate": ("execute built-in classifiers and write outcomes",
                 partial(_execute, allow_external=False), _EXECUTE_WRITES),
    "run": ("execute runs via the external-runner protocol",
            partial(_execute, allow_external=True), _EXECUTE_WRITES),
    "analyze": ("fit both responses per scenario, write fit reports", cmd_analyze, (FIT,)),
    # shap and contour take each fit from the report `analyze` wrote
    "shap": ("write per-column attribution reports", cmd_shap, (SHAP, SHAP_PHI)),
    "contour": ("write prediction grids and ternary SVG plots", cmd_contour, (GRID, CONTOUR_SVG)),
    "report": ("bundle fit reports into one text summary", cmd_report, (REPORT,)),
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
