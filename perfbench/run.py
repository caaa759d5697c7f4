"""mixrobust benchmark: one workload per process, timed through `cli.main`.

    python3 perfbench/run.py --workload c7-pipeline --seed 1 --seconds 40 --trace 0

With --trace 0 the workload's CLI stages run back to back in this process,
pass after pass, until --seconds is used up; the end-to-end metrics are
medians over passes. With --trace 1 the program runs once untraced and its
stages are then replayed call by call under spans, which gives the
per-layer metrics. Every pass checks its outputs. Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from summary import (nearest_rank, parallel_efficiency, self_time, tail_percentile,
                     timing_summary)
from workloads import ROOT, WORKLOADS, MissingSource, nproc, prepare, use_checkout_source

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
WORK = ROOT / ".perfbench_work"
FIT_STAGES = ("analyze", "shap", "report")
# layers whose share of the traced stage time is reported: the ones that
# dominate at least one workload
SHARE_LAYERS = ("sampling.compose_split", "classifiers.train_and_score.boosted_stumps",
                "classifiers.train_and_score.logistic", "metrics.auc_ovr",
                "metrics.read_outcomes_csv", "mixmodel.build_design_matrix",
                "mixmodel.fit_ols", "ternary.grid_predict", "ternary.render_ternary",
                "ternary.write_grid_csv")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's digests as the reference (seed 1 only)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------- environment

def _openblas_threads(path):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment():
    """Interpreter, library and BLAS facts; BLAS threading is left at its default."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps") as maps:
        loaded = sorted({line.split()[-1] for line in maps
                         if "openblas" in line and line.rstrip().endswith(".so")})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": {Path(p).name: _openblas_threads(p) for p in loaded},
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def dir_bytes(path, skip=()):
    files = [p for p in Path(path).iterdir() if p.is_file() and p.name not in skip]
    return sum(p.stat().st_size for p in files), len(files)


def csv_rows(path):
    path = Path(path)
    if not path.is_file():
        return 0
    with open(path, "rb") as handle:
        return max(sum(1 for _ in handle) - 1, 0)


# ---------------------------------------------------------------- CLI passes

def cli_pass(workload, config_path, out_dir, jobs):
    """Run the workload's stages through cli.main; returns {stage: (seconds, code)}."""
    from mixrobust import cli
    from spans import quiet
    out_dir.mkdir(parents=True)
    for name in workload.inputs:
        shutil.copyfile(config_path.parent / name, out_dir / name)
    timings = {}
    for stage in workload.stages:
        argv = [stage, "--config", str(config_path), "--out", str(out_dir)]
        if stage == "simulate":
            argv += ["--jobs", str(jobs)]
        start = time.perf_counter()
        try:
            with quiet():
                code = cli.main(argv)
        except Exception:  # a crashing stage is counted as failed, not fatal
            traceback.print_exc()
            code = -1
        timings[stage] = (time.perf_counter() - start, code)
    return timings


def count_outcomes(workload, out_dir):
    """(runs planned, runs completed) for a pass that simulates, else (0, 0)."""
    if "simulate" not in workload.stages:
        return 0, 0
    return csv_rows(out_dir / "plan.csv"), csv_rows(out_dir / "outcomes.csv")


def setup_probe(workload, seed, probe_dir):
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                    workload, str(seed), str(probe_dir)],
                   check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return time.perf_counter() - start


def timed_run(workload, seed, deadline, work, write_reference):
    """Set up SETUP_PROBES times, then run passes until the next one would
    end after `deadline` (a perf_counter value); at least one pass runs."""
    from checks import (Checks, check_against_reference, deterministic_digests,
                        load_reference, save_reference, sha256, svg_paths)
    setups = [setup_probe(workload.name, seed, work / f"probe{i}")
              for i in range(SETUP_PROBES)]
    config_path = prepare(workload.name, seed, work / "inputs")
    jobs = nproc()
    reference = load_reference(workload.name)
    checks, passes, first = Checks(), [], None
    runs = stages = failed_runs = failed_stages = 0
    while True:
        pass_start = time.perf_counter()
        out_dir = work / f"pass{len(passes)}"
        timings = cli_pass(workload, config_path, out_dir, jobs)
        planned, done = count_outcomes(workload, out_dir)
        runs += planned
        failed_runs += planned - done
        stages += len(timings)
        failed_stages += sum(code != 0 for _, code in timings.values())
        digests = deterministic_digests(out_dir)
        svgs = svg_paths(out_dir)
        svg_digests = {p.name: sha256(p) for p in svgs}
        if first is None:
            if write_reference and seed == 1:
                save_reference(workload.name, digests, len(svgs))
                reference = load_reference(workload.name)
            check_against_reference(checks, reference, digests, svgs, seed)
            first = (digests, svg_digests)
        else:
            for name in sorted(set(first[0]) | set(digests)):
                checks.add(f"rerun:{name}", first[0].get(name) == digests.get(name))
            checks.add("rerun:svgs", first[1] == svg_digests)
        size, _ = dir_bytes(out_dir, skip=workload.inputs)
        passes.append({"stages": {s: t for s, (t, _) in timings.items()},
                       "runs": done, "output_bytes": size,
                       "elapsed": time.perf_counter() - pass_start})
        shutil.rmtree(out_dir)
        if time.perf_counter() + statistics.median(p["elapsed"] for p in passes) > deadline:
            break
    return {"setups": setups, "passes": passes, "checks": checks,
            "attempted": runs + stages + len(checks),
            "failed": failed_runs + failed_stages + len(checks.failed)}


def end_to_end(workload, result):
    """(name, unit, summary) rows; stage metrics only where the stage runs."""
    passes = result["passes"]
    per_pass = {"wall_s": [sum(p["stages"].values()) for p in passes]}
    stages = workload.stages
    if "simulate" in stages:
        per_pass["simulate_s"] = [p["stages"]["simulate"] for p in passes]
        per_pass["runs_per_s"] = [p["runs"] / p["stages"]["simulate"] for p in passes]
    if "analyze" in stages:
        per_pass["fit_s"] = [sum(p["stages"][s] for s in FIT_STAGES) for p in passes]
    if "contour" in stages:
        per_pass["contour_s"] = [p["stages"]["contour"] for p in passes]
    units = {"runs_per_s": "1/s"}
    rows = [("setup_s", "s", timing_summary(result["setups"]))]
    rows += [(name, units.get(name, "s"), timing_summary(values))
             for name, values in per_pass.items()]
    rows.append(("peak_rss_mb", "MB", {"n": 1, "median": peak_rss_mb()}))
    rows.append(("output_mb", "MB", timing_summary([p["output_bytes"] / 1e6 for p in passes])))
    return rows


# ---------------------------------------------------------------- traced run

def traced_run(workload, seed, work):
    import spans
    from checks import (Checks, check_against_reference, check_same_files,
                        deterministic_digests, load_reference, svg_paths)
    from mixrobust.metrics import outcomes_to_csv

    tracer = spans.Tracer(workload.name)
    config_path = prepare(workload.name, seed, work / "inputs", call=tracer.call)
    cli_dir, replay_dir = work / "cli", work / "replay"
    # serial CLI pass: the untraced counterpart of the serial replay
    untraced = cli_pass(workload, config_path, cli_dir, jobs=1)
    replay_dir.mkdir()
    for name in workload.inputs:
        shutil.copyfile(config_path.parent / name, replay_dir / name)
    codes = {stage: spans.replay_stage(tracer, stage, config_path, replay_dir)
             for stage in workload.stages}

    checks = Checks()
    replayed_runs = tracer.named("pipeline.execute_run")
    runs = len(replayed_runs)
    failed_runs = sum("failed" in s.attrs for s in replayed_runs)
    digests = deterministic_digests(cli_dir)
    svgs = svg_paths(cli_dir)
    check_against_reference(checks, load_reference(workload.name), digests, svgs, seed)
    replayed = sorted(p.name for p in replay_dir.iterdir())
    check_same_files(checks, "replay", cli_dir, replay_dir, replayed)
    parallel = {}
    if "simulate" in workload.stages:
        jobs = nproc()
        replay_text = (replay_dir / "outcomes.csv").read_text()
        planned, done = count_outcomes(workload, cli_dir)
        runs += planned
        failed_runs += planned - done
        for n in (1, jobs):
            outcomes, failures, config = spans.time_simulate_plan(tracer, config_path, n)
            runs += len(outcomes) + len(failures)
            failed_runs += len(failures)
            checks.add(f"simulate_plan:jobs{n}==replay",
                       outcomes_to_csv(outcomes, config.design.m, config.design.h)
                       == replay_text)
        parallel = {"jobs": jobs,
                    "serial_s": tracer.named("pipeline.simulate_plan.jobs1")[0].duration,
                    "parallel_s": tracer.named(f"pipeline.simulate_plan.jobs{jobs}")[0].duration}
    stage_count = 2 * len(workload.stages)
    failed_stages = (sum(code != 0 for _, code in untraced.values())
                     + sum(code != 0 for code in codes.values()))
    written, files = dir_bytes(cli_dir, skip=workload.inputs)
    # m5-analyze has no plan.csv: its design is the synthetic outcomes' plan
    design_runs = csv_rows(cli_dir / "plan.csv") or csv_rows(cli_dir / "outcomes.csv")
    rows = layer_metrics(tracer, workload, untraced, parallel, written, files, design_runs)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(results_dir / f"{workload.name}-seed{seed}.trace.jsonl")
    return {"rows": rows, "checks": checks,
            "attempted": runs + stage_count + len(checks),
            "failed": failed_runs + failed_stages + len(checks.failed)}


def layer_metrics(tracer, workload, untraced, parallel, written, files, design_runs):
    """Per-layer rows (name, unit, value) from the traced replay's spans.

    A layer the workload never calls reads 0. Tail percentiles follow the
    rule in summary.tail_percentile, capped at p95.
    """
    rows = []

    def add(name, unit, value):
        rows.append((name, unit, value))

    def ms(name):
        return sorted(1e3 * s.duration for s in tracer.named(name))

    def busy(name):
        return sum(s.duration for s in tracer.named(name))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in tracer.named(name))

    def median(values):
        return statistics.median(values) if values else 0.0

    def latency(name, busy_s=True):
        values = ms(name)
        add(f"{name}.calls", "count", len(values))
        if busy_s:
            add(f"{name}.busy_s", "s", busy(name))
        add(f"{name}.ms_p50", "ms", median(values))
        p = tail_percentile(len(values), cap=95)
        if p is not None:
            add(f"{name}.ms_p{p}", "ms", nearest_rank(values, p))

    add("design.build_run_plan.ms", "ms", median(ms("design.build_run_plan")))
    add("design.runs", "count", design_runs)
    add("classifiers.generate_pool.ms", "ms", median(ms("classifiers.generate_pool")))
    latency("sampling.compose_split")
    train = attr("pipeline.execute_run", "train_rows")
    add("sampling.train_rows", "count", train)
    add("sampling.test_rows", "count", attr("pipeline.execute_run", "test_rows"))
    add("sampling.distinct_train_share", "share",
        attr("pipeline.execute_run", "distinct_train_rows") / train if train else 0.0)
    for kind in ("boosted_stumps", "logistic"):
        latency(f"classifiers.train_and_score.{kind}")
    auc = ms("metrics.auc_ovr")
    add("metrics.auc_ovr.calls", "count", len(auc))
    add("metrics.auc_ovr.busy_s", "s", busy("metrics.auc_ovr"))
    add("metrics.auc_ovr.us_p50", "us", 1e3 * median(auc))
    add("metrics.read_outcomes_csv.calls", "count", len(ms("metrics.read_outcomes_csv")))
    add("metrics.read_outcomes_csv.busy_s", "s", busy("metrics.read_outcomes_csv"))
    add("metrics.read_outcomes_csv.rows", "count", attr("metrics.read_outcomes_csv", "rows"))
    add("metrics.write_outcomes_csv.ms", "ms", median(ms("metrics.write_outcomes_csv")))
    add("mixmodel.build_design_matrix.calls", "count", len(ms("mixmodel.build_design_matrix")))
    add("mixmodel.build_design_matrix.busy_s", "s", busy("mixmodel.build_design_matrix"))
    add("mixmodel.build_design_matrix.rows", "count", attr("mixmodel.build_design_matrix", "rows"))
    ols = ms("mixmodel.fit_ols")
    add("mixmodel.fit_ols.calls", "count", len(ols))
    add("mixmodel.fit_ols.busy_s", "s", busy("mixmodel.fit_ols"))
    add("mixmodel.fit_ols.ms_p50", "ms", median(ols))
    add("mixmodel.fit_ols.ms_max", "ms", max(ols, default=0.0))
    add("mixmodel.fit_report.busy_s", "s", busy("mixmodel.fit_report"))
    grid = ms("ternary.grid_predict")
    add("ternary.grid_predict.calls", "count", len(grid))
    add("ternary.grid_predict.busy_s", "s", busy("ternary.grid_predict"))
    add("ternary.grid_predict.ms_p50", "ms", median(grid))
    add("ternary.grid_predict.points", "count", attr("ternary.grid_predict", "points"))
    svg = ms("ternary.render_ternary")
    add("ternary.render_ternary.calls", "count", len(svg))
    add("ternary.render_ternary.busy_s", "s", busy("ternary.render_ternary"))
    add("ternary.render_ternary.ms_p50", "ms", median(svg))
    add("ternary.render_ternary.svg_bytes", "bytes", attr("ternary.render_ternary", "svg_bytes"))
    add("ternary.write_grid_csv.busy_s", "s", busy("ternary.write_grid_csv"))
    add("shapley.shap_report.busy_s", "s", busy("shapley.shap_report"))
    add("shapley.write_phi_csv.busy_s", "s", busy("shapley.write_phi_csv"))
    latency("pipeline.execute_run", busy_s=False)
    add("pipeline.execute_run.failed", "count",
        sum("failed" in s.attrs for s in tracer.named("pipeline.execute_run")))
    if parallel:
        add("pipeline.simulate_plan.jobs1_s", "s", parallel["serial_s"])
        add(f"pipeline.simulate_plan.jobs{parallel['jobs']}_s", "s", parallel["parallel_s"])
    add("pipeline.parallel_efficiency", "share",
        parallel_efficiency(parallel["serial_s"], parallel["parallel_s"], parallel["jobs"])
        if parallel else 0.0)
    stage_spans = [tracer.named(f"cli.{stage}")[0] for stage in workload.stages]
    glue = [self_time(span.start, span.end, [(c.start, c.end) for c in tracer.children(span)])
            for span in stage_spans]
    for stage, own in zip(workload.stages, glue):
        add(f"cli.{stage}.self_s", "s", own)
    add("cli.self_s", "s", sum(glue))
    add("fileio.bytes_written", "bytes", written)
    add("fileio.files_written", "count", files)
    traced_wall = sum(span.duration for span in stage_spans)
    for name in SHARE_LAYERS:
        add(f"{name}.busy_share", "share", busy(name) / traced_wall)
    untraced_wall = sum(t for t, _ in untraced.values())
    add("trace.overhead_share", "share", traced_wall / untraced_wall - 1.0)
    return rows


# ---------------------------------------------------------------- output

def listed_metrics(kind):
    """Names BENCHMARK.json lists under `kind`; each must have been measured
    with the unit it declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # the worker count is an input the benchmark sets, not the caller's shell
    os.environ.pop("MIXROBUST_JOBS", None)
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(workload, args.seed, work)
        else:
            result = timed_run(workload, args.seed, started + args.seconds, work,
                               args.write_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    name = workload.name
    metrics = {}
    if args.trace:
        for metric, unit, value in result["rows"]:
            print(f"layer {name} {metric} {_fmt(value)} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        for metric, unit, s in end_to_end(workload, result):
            tail = f" p{s['pct']}={_fmt(s['pct_value'])}" if s.get("pct") else ""
            print(f"metric {name} {metric} {_fmt(s['median'])} {unit} n={s['n']}{tail}")
            metrics[metric] = {"value": s["median"], "unit": unit}
    failed_share = result["failed"] / result["attempted"]
    print(f"metric {name} failed_share {_fmt(failed_share)} share "
          f"({result['failed']}/{result['attempted']})")
    for check in result["checks"].failed:
        print(f"check-failed {name} {check}")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": name, "seed": args.seed, "env": env, "metrics": metrics,
                    "passes": result.get("passes"),
                    "failed_checks": result["checks"].failed}, indent=1) + "\n")
    reported = listed_metrics("per_layer" if args.trace else "end_to_end")
    unmeasured = [m for m, unit in reported.items() if metrics.get(m, {}).get("unit") != unit]
    if unmeasured:
        raise RuntimeError(f"BENCHMARK.json metrics not measured as declared: {unmeasured}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {m: metrics[m] for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
