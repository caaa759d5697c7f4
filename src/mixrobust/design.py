"""Constrained simplex-centroid designs crossed with covariate factorials.

The training-side design puts the class-label proportions on a simplex
centroid floored at a minimum proportion, crosses it with a full factorial
in the covariate factors, and expands each base run over test scenarios
and replicates into a seeded, serializable run plan.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .fileio import atomic_write_text, csv_text
from .seeding import derive_seeds, generator

MIXTURE_SUM_TOL = 1e-12
# decimals of every proportion written to plan.csv, outcomes.csv and the grids
PROPORTION_DECIMALS = 6


class DesignError(ValueError):
    pass


def as_float(value):
    """`value` as a float, or None when it is not a real number: a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def real_number(value, name, error=DesignError, whole=False):
    """`value` as a float, or as an int if `whole`; raises error naming `name`
    when it is not a real number, or not a whole one: 3.0 is 3, 2.5 fails."""
    number = as_float(value)
    if number is None or whole and not number.is_integer():
        raise error(f"{name} must be {'a whole' if whole else 'a'} number, got {value!r}")
    return int(value) if whole else number


def real_numbers(value, name, error=DesignError, depth=1):
    """A list, tuple or array of real numbers (depth 1), or of such (depth 2),
    as nested tuples of floats."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        kind = "a list of " * depth + "numbers"
        raise error(f"{name} must be {kind}, got {value!r}")
    if depth == 1:
        return tuple(real_number(item, name, error) for item in value)
    return tuple(real_numbers(item, name, error, depth - 1) for item in value)


whole_number, real_table = partial(real_number, whole=True), partial(real_numbers, depth=2)


def repeated(items):
    """The items of the sequence `items` equal to an earlier item, in order."""
    return [item for i, item in enumerate(items) if item in items[:i]]


def check_fields(config, error, **rules):
    """Set each field of the frozen dataclass `config` to rule(value, name, error), in order."""
    for name, rule in rules.items():
        object.__setattr__(config, name, rule(getattr(config, name), name, error))


class TestScenario(Enum):
    """How test-set label proportions relate to the training mixture."""

    __test__ = False  # not a pytest class, despite the name

    BALANCED = "balanced"
    CONSISTENT = "consistent"
    REVERSE = "reverse"

    @classmethod
    def parse(cls, name):
        try:
            return cls(name if isinstance(name, cls) else str(name).strip().lower())
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
        check_fields(self, DesignError, m=whole_number, covariate_levels=real_table,
                     min_prop=real_number, replicates=whole_number, seed=whole_number)
        check_floor(self.m, self.min_prop)
        if self.replicates < 1:
            raise DesignError("replicates must be >= 1")
        for k, levels in enumerate(self.covariate_levels, start=1):
            if not levels:
                raise DesignError("every covariate factor needs at least one level")
            if not all(map(math.isfinite, levels)):
                raise DesignError(f"covariate_levels: z{k} levels {list(levels)} must be finite")
            repeats = repeated(levels)  # 0.0 == -0.0: one level
            if repeats:
                raise DesignError(f"covariate_levels: z{k} lists level {repeats[0]:g} twice")

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
    dominant point with a uniformly random dominant class drawn from the
    Generator rng.

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

    low = _lowest(x)
    if low.all():
        # exact centroid: no rank pattern to reverse
        if rng is None:
            raise DesignError("REVERSE at the exact centroid needs an rng")
        floor = 0.0 if min_prop is None else float(min_prop)
        dominant = int(rng.integers(m))
        out = np.full(m, floor)
        out[dominant] = 1.0 - (m - 1) * floor
        return out
    floor = float(x.min()) if min_prop is None else float(min_prop)
    k = int(low.sum())
    out = np.full(m, floor)
    out[low] = (1.0 - (m - k) * floor) / k
    return out


def _lowest(x):
    """Which classes of the proportion array x sit at its minimum, within 1e-12."""
    return x <= x.min() + 1e-12


def expand_plan(base: RunPlan, scenarios=ALL_SCENARIOS) -> RunPlan:
    """Expand base cross-array runs over scenarios and replicates.

    Instances are ordered scenario-major, then replicate, then base-run, and
    get fresh contiguous run_ids. Each instance seed derives from
    (master seed, run_id, replicate, scenario); the randomized REVERSE
    branch draws from that instance seed, so replicates stay independent.
    """
    cfg = base.config
    scenarios = tuple(map(TestScenario.parse, scenarios))
    replicates = np.repeat(np.arange(1, cfg.replicates + 1), len(base.runs))
    runs = []
    for scenario in scenarios:
        run_ids = np.arange(len(runs) + 1, len(runs) + 1 + replicates.size)
        seeds = derive_seeds(cfg.seed, run_ids, replicates, scenario.value)
        tests = _test_mixtures(base, scenario)
        for run_id, replicate, seed, baserun, test in zip(
                run_ids.tolist(), replicates.tolist(), seeds.tolist(),
                itertools.cycle(base.runs), itertools.cycle(tests)):
            if test is None:
                test = tuple(scenario_test_proportions(
                    baserun.train_mixture, scenario, rng=generator(seed, "reverse"),
                    min_prop=cfg.min_prop).tolist())
            runs.append(RunSpec(run_id, baserun.train_mixture, baserun.covariates, scenario,
                                test, replicate, seed))
    return RunPlan(config=cfg, runs=runs)


def _test_mixtures(base: RunPlan, scenario: TestScenario):
    """The test mixture of each base run under scenario, computed once per
    training mixture; None for the exact centroid under REVERSE, whose
    instances each draw their own."""
    keys = [repr(run.train_mixture) for run in base.runs]  # -0.0 apart from 0.0
    by_point = {}
    for key, run in zip(keys, base.runs):
        if key not in by_point:
            x = np.asarray(run.train_mixture, dtype=float)
            draws = scenario is TestScenario.REVERSE and _lowest(x).all()
            by_point[key] = None if draws else tuple(scenario_test_proportions(
                x, scenario, min_prop=base.config.min_prop).tolist())
    return [by_point[key] for key in keys]


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
