"""Benchmark workloads and the inputs each one generates from its seed.

Run as a script (`python3 perfbench/workloads.py WORKLOAD SEED DIR`) it is
the set-up probe: a fresh process that imports mixrobust and writes the
workload's inputs into DIR, which is what `setup_s` times from outside.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    pass


def use_checkout_source():
    """Import mixrobust from this checkout's src/, never from elsewhere."""
    if not (SRC / "mixrobust" / "__init__.py").is_file():
        raise MissingSource(f"no mixrobust sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import mixrobust
    if Path(mixrobust.__file__).resolve().parent != SRC / "mixrobust":
        raise MissingSource(f"mixrobust imported from {mixrobust.__file__}, not {SRC}")


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    # generated files copied into the output directory before a pass:
    # m5-analyze starts from a synthetic outcomes.csv instead of `simulate`
    inputs: tuple = ()


WORKLOADS = {w.name: w for w in (
    # the ROADMAP's criterion-7 reference experiment, every CLI stage
    Workload("c7-pipeline", ("design", "simulate", "analyze", "shap", "contour", "report")),
    # many cheap runs on a large pool: per-run overheads (sampling, AUC) dominate
    Workload("bigpool-light", ("simulate",)),
    # m=5: model-matrix and OLS work dominate; no classifiers and no SVG
    Workload("m5-analyze", ("analyze", "shap", "contour", "report"), inputs=("outcomes.csv",)),
)}


def _pool(seed, n_per_class):
    return {"synthetic": {"m": 3, "d": 3, "n_per_class": n_per_class,
                          "separation": 2.5, "seed": seed}}


def config_doc(name, seed):
    """The experiment config a user would write for this workload."""
    if name == "m5-analyze":
        # classifiers and pools are required by the config schema but unused:
        # the outcomes come from write_synthetic_outcomes
        return {"master_seed": seed,
                "design": {"m": 5, "min_prop": 0.01, "replicates": 10,
                           "covariate_levels": [[1, 0], [1, 0], [1, 0]]},
                "classifiers": {"1": {"kind": "logistic"}, "0": {"kind": "boosted_stumps"}},
                "pools": {"1": {"synthetic": {"m": 5, "d": 5, "n_per_class": 10,
                                              "seed": seed * 1000 + 1}},
                          "0": {"synthetic": {"m": 5, "d": 5, "n_per_class": 10,
                                              "seed": seed * 1000 + 2}}},
                "output_dir": "out"}
    light = name == "bigpool-light"
    logistic = {"kind": "logistic"}
    stumps = {"kind": "boosted_stumps"}
    if light:
        logistic["hyper"] = {"epochs": 20}
        stumps["hyper"] = {"rounds": 3}
    n_per_class = 5000 if light else 1000
    return {"master_seed": seed,
            "design": {"m": 3, "min_prop": 0.01, "replicates": 10 if light else 3,
                       "covariate_levels": [[1, 0], [1, 0]]},
            "sampling": {"train_frac": 0.10, "test_frac": 0.20},
            "classifiers": {"1": logistic, "0": stumps},
            "pools": {"1": _pool(seed * 1000 + 1, n_per_class),
                      "0": _pool(seed * 1000 + 2, n_per_class)},
            "output_dir": "out"}


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def write_synthetic_outcomes(doc, seed, path, call=_direct):
    """Outcomes for every run of the design, with AUCs drawn from the seed.

    Each class's AUC rises with its training share and with the covariates,
    plus noise, so the fitted surfaces are neither flat nor saturated.
    """
    import numpy as np
    from mixrobust.design import DesignConfig, build_run_plan
    from mixrobust.metrics import RunOutcome, write_outcomes_csv

    spec = doc["design"]
    design = DesignConfig(m=spec["m"], min_prop=spec["min_prop"],
                          replicates=spec["replicates"],
                          covariate_levels=spec["covariate_levels"], seed=seed)
    plan = call("design.build_run_plan", build_run_plan, design)
    rng = np.random.default_rng([seed, 5])
    mixtures = np.array([r.train_mixture for r in plan.runs])
    covariates = np.array([r.covariates for r in plan.runs])
    aucs = (0.72 + 0.2 * mixtures + 0.02 * covariates.sum(axis=1, keepdims=True)
            + rng.normal(0.0, 0.02, size=mixtures.shape))
    aucs = np.clip(aucs, 0.5, 0.999)
    outcomes = [RunOutcome.from_aucs(r.run_id, r.replicate, r.scenario, r.covariates,
                                     r.train_mixture, row)
                for r, row in zip(plan.runs, aucs)]
    call("metrics.write_outcomes_csv", write_outcomes_csv,
         outcomes, design.m, design.h, path)


def prepare(name, seed, workdir, call=_direct):
    """Write the workload's inputs into workdir; returns the config path."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    doc = config_doc(name, seed)
    config_path = workdir / "experiment.json"
    config_path.write_text(json.dumps(doc, indent=2) + "\n")
    if "outcomes.csv" in WORKLOADS[name].inputs:
        write_synthetic_outcomes(doc, seed, workdir / "outcomes.csv", call)
    return config_path


if __name__ == "__main__":
    use_checkout_source()
    import mixrobust.cli  # noqa: F401  (the import cost is part of set-up)
    prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
