"""Constrained simplex-centroid designs crossed with covariate factorials.

The training-side design puts the class-label proportions on a simplex
centroid floored at a minimum proportion, crosses it with a full factorial
in the covariate factors, and expands each base run over test scenarios
and replicates into a seeded, serializable run plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .fileio import atomic_write_text, csv_text, read_csv
from .seeding import derive_seed, generator

MIXTURE_SUM_TOL = 1e-12
# decimals of every proportion written to plan.csv, outcomes.csv and the grids
PROPORTION_DECIMALS = 6


class DesignError(ValueError):
    pass


class TestScenario(Enum):
    """How test-set label proportions relate to the training mixture."""

    __test__ = False  # not a pytest class, despite the name

    BALANCED = "balanced"
    CONSISTENT = "consistent"
    REVERSE = "reverse"

    @classmethod
    def parse(cls, name):
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise DesignError(f"unknown scenario {name!r}; expected one of "
                              f"{[s.value for s in cls]}") from None


ALL_SCENARIOS = (TestScenario.BALANCED, TestScenario.CONSISTENT, TestScenario.REVERSE)


@dataclass(frozen=True)
class DesignConfig:
    """Shape of one experiment: classes, covariate factorial, floor, replication."""

    m: int = 3
    covariate_levels: tuple = ((1, 0), (1, 0))
    min_prop: float = 0.01
    replicates: int = 3
    seed: int = 0

    def __post_init__(self):
        check_floor(self.m, self.min_prop)
        if self.replicates < 1:
            raise DesignError("replicates must be >= 1")
        levels = tuple(tuple(float(v) for v in lv) for lv in self.covariate_levels)
        if any(len(lv) == 0 for lv in levels):
            raise DesignError("every covariate factor needs at least one level")
        object.__setattr__(self, "covariate_levels", levels)

    @property
    def h(self):
        return len(self.covariate_levels)


@dataclass(frozen=True)
class RunSpec:
    """One experimental run instance.

    Scenario and test mixture stay None on the base cross-array and are
    filled in by expand_plan, together with the instance seed.
    """

    run_id: int
    train_mixture: tuple
    covariates: tuple
    scenario: TestScenario | None = None
    test_mixture: tuple | None = None
    replicate: int = 1
    seed: int = 0


@dataclass
class RunPlan:
    config: DesignConfig
    runs: list

    def __len__(self):
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)


def check_floor(m, min_prop, error=DesignError):
    """The constrained simplex is nonempty: m >= 2 parts, each at or above a
    floor min_prop in [0, 1/m). Otherwise raises error."""
    if m < 2:
        raise error(f"need at least 2 classes, got m={m}")
    if not 0.0 <= min_prop < 1.0 / m:
        raise error(f"min_prop={min_prop} must lie in [0, 1/m); the floor is "
                    f"infeasible for m={m}")


def check_mixture(x, min_prop=0.0):
    """Validate a proportion vector: sums to one, respects the floor."""
    arr = np.asarray(x, dtype=float)
    total = float(arr.sum())
    if not abs(total - 1.0) <= MIXTURE_SUM_TOL:
        raise DesignError(f"proportions sum to {total!r}, not 1")
    if arr.min() < min_prop - 1e-12:
        raise DesignError(f"proportion {arr.min()} below the floor {min_prop}")
    return arr


def simplex_centroid(m, min_prop=0.0):
    """All 2^m - 1 equal-share subset blends, floored at min_prop.

    For every nonempty subset S of the m components the design point puts
    (1 - (m - |S|) * min_prop) / |S| on each member of S and min_prop on the
    rest. Pure components come first (by index), then blends of increasing
    order (lexicographic within an order), the overall centroid last.
    """
    check_floor(m, min_prop)
    points = []
    for size in range(1, m + 1):
        share = (1.0 - (m - size) * min_prop) / size
        for subset in itertools.combinations(range(m), size):
            x = np.full(m, min_prop)
            x[list(subset)] = share
            points.append(x)
    return points


def cross_array(points, config: DesignConfig) -> RunPlan:
    """Cross mixture points with the full factorial of covariate levels.

    Covariate combinations form consecutive blocks; points keep their listed
    order inside each block. Scenario assignment comes later, so the test
    mixtures are left unset.
    """
    points = [check_mixture(p, config.min_prop) for p in points]
    if not points:
        raise DesignError("points must be nonempty")
    for x in points:
        if x.shape != (config.m,):
            raise DesignError(f"mixture point {x.tolist()} does not have m={config.m} parts")
    runs = []
    run_id = 1
    for z in itertools.product(*config.covariate_levels):
        for x in points:
            runs.append(RunSpec(
                run_id=run_id,
                train_mixture=tuple(float(v) for v in x),
                covariates=tuple(float(v) for v in z),
            ))
            run_id += 1
    return RunPlan(config=config, runs=runs)


def scenario_test_proportions(train, scenario: TestScenario, rng=None, min_prop=None):
    """Test-set proportions implied by a training mixture under a scenario.

    BALANCED is uniform, CONSISTENT echoes the training mixture. REVERSE
    swaps the rank pattern: the classes sitting at the training minimum take
    over the dominant (equal) share while every other class drops to the
    floor. The exact centroid has no minimum group, so it maps to a pure-
    dominant point with a uniformly random dominant class drawn from rng: a
    Generator, or a function returning one, called only for that draw.

    min_prop is the floor used when constructing REVERSE points; it defaults
    to the training minimum (which on a design point is the design floor).
    """
    x = np.asarray(train, dtype=float)
    m = x.size
    if scenario is TestScenario.BALANCED:
        return np.full(m, 1.0 / m)
    if scenario is TestScenario.CONSISTENT:
        return x.copy()
    if scenario is not TestScenario.REVERSE:
        raise DesignError(f"unknown scenario {scenario!r}")

    low = x <= x.min() + 1e-12
    if low.all():
        # exact centroid: no rank pattern to reverse
        if rng is None:
            raise DesignError("REVERSE at the exact centroid needs an rng")
        floor = 0.0 if min_prop is None else float(min_prop)
        if callable(rng):
            rng = rng()
        dominant = int(rng.integers(m))
        out = np.full(m, floor)
        out[dominant] = 1.0 - (m - 1) * floor
        return out
    floor = float(x.min()) if min_prop is None else float(min_prop)
    k = int(low.sum())
    out = np.full(m, floor)
    out[low] = (1.0 - (m - k) * floor) / k
    return out


def expand_plan(base: RunPlan, scenarios=ALL_SCENARIOS) -> RunPlan:
    """Expand base cross-array runs over scenarios and replicates.

    Instances are ordered scenario-major, then replicate, then base-run, and
    get fresh contiguous run_ids. Each instance seed derives from
    (master seed, run_id, replicate, scenario); the randomized REVERSE
    branch draws from that instance seed, so replicates stay independent.
    """
    cfg = base.config
    scenarios = tuple(TestScenario.parse(s) if not isinstance(s, TestScenario) else s
                      for s in scenarios)
    runs = []
    run_id = 1
    for scenario in scenarios:
        for replicate in range(1, cfg.replicates + 1):
            for baserun in base.runs:
                seed = derive_seed(cfg.seed, run_id, replicate, scenario.value)
                test = scenario_test_proportions(
                    baserun.train_mixture, scenario,
                    rng=partial(generator, seed, "reverse"), min_prop=cfg.min_prop)
                runs.append(replace(
                    baserun,
                    run_id=run_id,
                    scenario=scenario,
                    test_mixture=tuple(float(v) for v in test),
                    replicate=replicate,
                    seed=seed,
                ))
                run_id += 1
    return RunPlan(config=cfg, runs=runs)


def build_run_plan(config: DesignConfig, scenarios=ALL_SCENARIOS) -> RunPlan:
    """Simplex centroid -> cross array -> expanded, seeded plan."""
    points = simplex_centroid(config.m, config.min_prop)
    return expand_plan(cross_array(points, config), scenarios)


def plan_header(m, h):
    return (["run_id", "scenario", "replicate"]
            + [f"x{j}" for j in range(1, m + 1)]
            + [f"z{k}" for k in range(1, h + 1)]
            + [f"test_x{j}" for j in range(1, m + 1)]
            + ["seed"])


def plan_to_csv(plan: RunPlan) -> str:
    """Serialize an expanded plan; proportions print with PROPORTION_DECIMALS."""
    return csv_text(plan_header(plan.config.m, plan.config.h), map(_plan_row, plan.runs))


def _plan_row(run: RunSpec):
    if run.scenario is None or run.test_mixture is None:
        raise DesignError(f"run {run.run_id} has no scenario assignment; "
                          "expand the plan before writing it")
    return ([run.run_id, run.scenario.value, run.replicate]
            + [f"{v:.{PROPORTION_DECIMALS}f}" for v in run.train_mixture]
            + [f"{v:g}" for v in run.covariates]
            + [f"{v:.{PROPORTION_DECIMALS}f}" for v in run.test_mixture]
            + [run.seed])


def write_plan_csv(plan: RunPlan, path):
    atomic_write_text(path, plan_to_csv(plan))


def stored_sum_bound(m):
    """How far from 1 the m printed proportions of a row can sum: rounding
    each part moves it by at most half a unit in the last decimal, and
    parsing and adding the parts by a few ulps more."""
    return m * (0.5 * 10.0 ** -PROPORTION_DECIMALS + 4 * np.finfo(float).eps)


def renormalize_rows(block, where, error=DesignError):
    """Each row of an (n, m) block of stored proportions divided by its sum.

    A sum outside 1 +/- stored_sum_bound(m) raises error("<where(i)>:
    <reason>") for the first such row i.
    """
    block = np.asarray(block, dtype=float)
    total = block.sum(axis=1)
    bound = stored_sum_bound(block.shape[1])
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= bound))
    if bad.size:
        i = int(bad[0])
        raise error(f"{where(i)}: stored proportions sum to {total[i]}, "
                    f"outside 1 +/- {bound:.2g}")
    return block / total[:, None]


def read_plan_csv(path):
    """Read run specs back; the printed proportions are renormalized to sum 1.
    A malformed file or row raises DesignError naming it."""
    return read_csv(path, DesignError, _plan_layout)


def _plan_layout(header):
    m = sum(1 for name in header if name.startswith("x"))
    h = sum(1 for name in header if name.startswith("z") and not name.startswith("z_"))

    def parse(row):
        run_id = int(row[0])
        train, test = renormalize_rows(
            [row[3:3 + m], row[3 + m + h:3 + 2 * m + h]],
            lambda i: f"run {run_id} {('train', 'test')[i]} mixture")
        return RunSpec(
            run_id=run_id, scenario=TestScenario.parse(row[1]), replicate=int(row[2]),
            train_mixture=tuple(train),
            covariates=tuple(float(v) for v in row[3 + m:3 + m + h]),
            test_mixture=tuple(test),
            seed=int(row[3 + 2 * m + h]))
    return plan_header(m, h), parse
