import numpy as np
import pytest

from mixrobust import (DesignConfig, DesignError, TestScenario, build_run_plan,
                       cross_array, expand_plan, read_plan_csv,
                       scenario_test_proportions, simplex_centroid, write_plan_csv)
from mixrobust import design
from mixrobust.design import plan_to_csv
from mixrobust.seeding import generator

from reference_tables import (CENTROID_REVERSE_CHOICES, CROSS_ARRAY_28,
                              DESIGN_POINTS_LISTED, POINT_CENTROID, REVERSE_MAP)


def as_tuple(x):
    return tuple(round(float(v), 12) for v in x)


class TestSimplexCentroid:
    def test_three_class_floored_instance(self):
        points = simplex_centroid(3, 0.01)
        expected = {
            (0.98, 0.01, 0.01), (0.01, 0.98, 0.01), (0.01, 0.01, 0.98),
            (0.495, 0.495, 0.01), (0.495, 0.01, 0.495), (0.01, 0.495, 0.495),
            as_tuple(POINT_CENTROID),
        }
        assert {as_tuple(p) for p in points} == expected

    def test_ordering_pure_then_binary_then_centroid(self):
        points = simplex_centroid(3, 0.01)
        assert as_tuple(points[0]) == (0.98, 0.01, 0.01)
        assert as_tuple(points[1]) == (0.01, 0.98, 0.01)
        assert as_tuple(points[2]) == (0.01, 0.01, 0.98)
        assert as_tuple(points[3]) == (0.495, 0.495, 0.01)
        assert as_tuple(points[-1]) == as_tuple(POINT_CENTROID)

    def test_two_class_unconstrained(self):
        points = simplex_centroid(2, 0.0)
        assert [as_tuple(p) for p in points] == [(1, 0), (0, 1), (0.5, 0.5)]

    def test_unconstrained_three_class_contains_vertex_and_centroid(self):
        points = {as_tuple(p) for p in simplex_centroid(3, 0.0)}
        assert (1.0, 0.0, 0.0) in points
        assert as_tuple(POINT_CENTROID) in points

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_count_is_two_to_m_minus_one(self, m):
        assert len(simplex_centroid(m, 0.01)) == 2 ** m - 1

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_points_sum_to_one_and_respect_floor(self, m):
        for p in simplex_centroid(m, 0.01):
            assert abs(p.sum() - 1.0) <= 1e-12
            assert p.min() >= 0.01 - 1e-15

    def test_infeasible_floor_rejected(self):
        with pytest.raises(DesignError):
            simplex_centroid(3, 1 / 3)
        with pytest.raises(DesignError):
            simplex_centroid(2, 0.5)


class TestCrossArray:
    def test_28_run_row_set_matches_corrected_reference(self):
        cfg = DesignConfig(m=3, covariate_levels=((1, 0), (1, 0)), min_prop=0.01)
        plan = cross_array(simplex_centroid(3, 0.01), cfg)
        assert len(plan) == 28
        got = {as_tuple(r.train_mixture + r.covariates) for r in plan.runs}
        want = {as_tuple(row) for row in CROSS_ARRAY_28}
        assert got == want

    def test_covariate_blocks_in_listed_level_order(self):
        cfg = DesignConfig(m=3, covariate_levels=((1, 0), (1, 0)), min_prop=0.01)
        plan = cross_array(simplex_centroid(3, 0.01), cfg)
        blocks = [plan.runs[i * 7].covariates for i in range(4)]
        assert blocks == [(1, 1), (1, 0), (0, 1), (0, 0)]
        assert [r.run_id for r in plan.runs] == list(range(1, 29))

    def test_point_of_the_wrong_width_rejected(self):
        # a 2-part point in an m=3 design would write a short plan.csv row
        cfg = DesignConfig(m=3, covariate_levels=((1, 0),), min_prop=0.0)
        with pytest.raises(DesignError, match=r"\[0\.5, 0\.5\] does not have m=3 parts"):
            cross_array([[0.5, 0.5]], cfg)

    def test_nan_point_rejected(self):
        cfg = DesignConfig(m=3, covariate_levels=((1, 0),), min_prop=0.0)
        with pytest.raises(DesignError, match=r"^proportions sum to nan, not 1$"):
            cross_array([[float("nan"), 0.5, 0.5]], cfg)

    def test_single_factor_gives_product_count(self):
        cfg = DesignConfig(m=3, covariate_levels=((1, 0),), min_prop=0.01)
        plan = cross_array(simplex_centroid(3, 0.01), cfg)
        assert len(plan) == 14

    def test_expansion_gives_84_instances_per_scenario(self):
        cfg = DesignConfig(m=3, covariate_levels=((1, 0), (1, 0)),
                           min_prop=0.01, replicates=3, seed=5)
        plan = build_run_plan(cfg)
        assert len(plan) == 252
        per_scenario = {}
        for run in plan.runs:
            per_scenario.setdefault(run.scenario, []).append(run)
        assert {len(v) for v in per_scenario.values()} == {84}

    def test_run_ids_unique_and_contiguous(self, reference_instance_plan):
        ids = [r.run_id for r in reference_instance_plan.runs]
        assert ids == list(range(1, 253))


class TestScenarioProportions:
    @pytest.mark.parametrize("train", DESIGN_POINTS_LISTED)
    def test_balanced_is_uniform(self, train):
        out = scenario_test_proportions(train, TestScenario.BALANCED)
        assert np.allclose(out, 1 / 3, atol=1e-15)

    @pytest.mark.parametrize("train", DESIGN_POINTS_LISTED)
    def test_consistent_echoes_train(self, train):
        out = scenario_test_proportions(train, TestScenario.CONSISTENT)
        assert as_tuple(out) == as_tuple(train)

    @pytest.mark.parametrize("train,expected", sorted(REVERSE_MAP.items()))
    def test_reverse_matches_reference_rows(self, train, expected):
        out = scenario_test_proportions(train, TestScenario.REVERSE, min_prop=0.01)
        assert as_tuple(out) == as_tuple(expected)

    @pytest.mark.parametrize("train", sorted(REVERSE_MAP))
    def test_reverse_uses_train_floor_when_unspecified(self, train):
        out = scenario_test_proportions(train, TestScenario.REVERSE)
        assert as_tuple(out) == as_tuple(REVERSE_MAP[train])

    def test_reverse_is_involution_on_non_centroid_points(self):
        for train in REVERSE_MAP:
            once = scenario_test_proportions(train, TestScenario.REVERSE, min_prop=0.01)
            twice = scenario_test_proportions(once, TestScenario.REVERSE, min_prop=0.01)
            assert np.allclose(twice, train, atol=1e-12)

    def test_centroid_reverse_draws_only_pure_dominant_points(self):
        seen = set()
        for i in range(60):
            rng = generator(1234, i)
            out = scenario_test_proportions(POINT_CENTROID, TestScenario.REVERSE,
                                            rng=rng, min_prop=0.01)
            seen.add(as_tuple(out))
        assert seen == {as_tuple(p) for p in CENTROID_REVERSE_CHOICES}

    def test_centroid_reverse_requires_rng(self):
        with pytest.raises(DesignError):
            scenario_test_proportions(POINT_CENTROID, TestScenario.REVERSE)

    def test_all_scenario_outputs_sum_to_one_and_respect_floor(self):
        rng = generator(9, "x")
        for scenario in TestScenario:
            for train in DESIGN_POINTS_LISTED:
                out = scenario_test_proportions(train, scenario, rng=rng, min_prop=0.01)
                assert abs(out.sum() - 1.0) <= 1e-12
                assert out.min() >= 0.01 - 1e-15


class TestSeeding:
    def test_same_master_seed_same_reverse_choice(self):
        cfg = DesignConfig(seed=77)
        plan_a = build_run_plan(cfg)
        plan_b = build_run_plan(cfg)
        assert [r.test_mixture for r in plan_a.runs] == [r.test_mixture for r in plan_b.runs]
        assert [r.seed for r in plan_a.runs] == [r.seed for r in plan_b.runs]

    def test_distinct_master_seeds_differ(self):
        plan_a = build_run_plan(DesignConfig(seed=77))
        plan_b = build_run_plan(DesignConfig(seed=78))
        assert [r.seed for r in plan_a.runs] != [r.seed for r in plan_b.runs]

    def test_centroid_draw_varies_across_replicates(self):
        # per-instance randomization: with 36 centroid instances under
        # REVERSE a single shared draw is effectively impossible
        plan = build_run_plan(DesignConfig(seed=3, replicates=3))
        draws = {r.test_mixture for r in plan.runs
                 if r.scenario is TestScenario.REVERSE
                 and as_tuple(r.train_mixture) == as_tuple(POINT_CENTROID)}
        assert len(draws) > 1


    def test_reverse_generator_built_only_for_centroid_draws(self, monkeypatch):
        built = []
        monkeypatch.setattr(design, "generator",
                            lambda seed, *tags: built.append(seed) or generator(seed, *tags))
        plan = build_run_plan(DesignConfig(seed=3, replicates=3))
        centroid = [r for r in plan.runs if r.scenario is TestScenario.REVERSE
                    and as_tuple(r.train_mixture) == as_tuple(POINT_CENTROID)]
        assert built == [r.seed for r in centroid] and len(built) == 12
        # the test mixtures are those of a generator built for every run
        for run in plan.runs:
            eager = scenario_test_proportions(run.train_mixture, run.scenario,
                                              rng=generator(run.seed, "reverse"),
                                              min_prop=0.01)
            assert run.test_mixture == tuple(eager.tolist())


class TestPlanCsv:
    def test_round_trip_and_renormalization(self, tmp_path, reference_instance_plan):
        path = tmp_path / "plan.csv"
        write_plan_csv(reference_instance_plan, path)
        runs = read_plan_csv(path)
        assert len(runs) == 252
        for run, original in zip(runs, reference_instance_plan.runs):
            assert run.run_id == original.run_id
            assert run.scenario == original.scenario
            assert run.seed == original.seed
            assert abs(sum(run.train_mixture) - 1.0) <= 1e-12
            assert np.allclose(run.train_mixture, original.train_mixture, atol=1e-6)

    def test_centroid_prints_six_decimals(self, reference_instance_plan):
        text = plan_to_csv(reference_instance_plan)
        assert "0.333333" in text
        assert "0.3333333" not in text

    def test_byte_stable(self, reference_instance_plan):
        assert plan_to_csv(reference_instance_plan) == plan_to_csv(reference_instance_plan)

    @staticmethod
    def _two_class_plan(tmp_path, last_row):
        path = tmp_path / "plan.csv"
        path.write_text("run_id,scenario,replicate,x1,x2,z1,test_x1,test_x2,seed\n"
                        "1,balanced,1,0.990000,0.010000,1,0.500000,0.500000,7\n"
                        + last_row + "\n")
        return path

    def test_non_numeric_field_names_path_and_line(self, tmp_path):
        path = self._two_class_plan(
            tmp_path, "2,balanced,1,abc,0.010000,1,0.500000,0.500000,8")
        with pytest.raises(DesignError, match=r"plan\.csv:3: could not convert string "
                                              r"to float: 'abc'"):
            read_plan_csv(path)

    @pytest.mark.parametrize("side,row", [
        ("train", "2,balanced,1,0.990000,0.020000,1,0.500000,0.500000,8"),
        ("test", "2,balanced,1,0.990000,0.010000,1,0.500000,nan,8")])
    def test_mixture_off_one_names_run_and_side(self, tmp_path, side, row):
        path = self._two_class_plan(tmp_path, row)
        with pytest.raises(DesignError, match=rf"plan\.csv:3: run 2 {side} mixture: "
                                              r"stored proportions sum to"):
            read_plan_csv(path)

    def test_short_row_names_path_line_and_field_count(self, tmp_path):
        path = self._two_class_plan(tmp_path, "2,balanced,1,0.990000,0.010000,1")
        with pytest.raises(DesignError, match=r"plan\.csv:3: expected 9 fields, got 6$"):
            read_plan_csv(path)


class TestMixtureChecks:
    @pytest.mark.parametrize("x", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5],
                                   [0.5, 0.6], [0.5, 0.5 - 1e-9]])
    def test_check_mixture_rejects_a_sum_off_one(self, x):
        with pytest.raises(DesignError, match="proportions sum to"):
            design.check_mixture(x)

    def test_check_mixture_prints_the_sum_as_a_plain_float(self):
        with pytest.raises(DesignError, match=r"^proportions sum to 1\.1, not 1$"):
            design.check_mixture(np.array([0.6, 0.5]))

    @pytest.mark.parametrize("m,min_prop", [(1, 0.0), (3, -0.01), (3, 1 / 3), (2, 0.5),
                                            (3, float("nan"))])
    def test_one_floor_rule_for_config_and_centroid(self, m, min_prop):
        with pytest.raises(DesignError) as floor:
            design.check_floor(m, min_prop)
        with pytest.raises(DesignError) as config:
            DesignConfig(m=m, min_prop=min_prop)
        with pytest.raises(DesignError) as centroid:
            simplex_centroid(m, min_prop)
        assert str(config.value) == str(centroid.value) == str(floor.value)

    def test_floor_error_class_is_the_callers(self):
        with pytest.raises(KeyError):
            design.check_floor(4, 0.25, KeyError)
        design.check_floor(4, np.nextafter(0.25, 0))


class TestConfigValidation:
    def test_rejects_bad_m(self):
        with pytest.raises(DesignError):
            DesignConfig(m=1)

    def test_rejects_bad_floor(self):
        with pytest.raises(DesignError):
            DesignConfig(m=3, min_prop=0.34)

    def test_rejects_zero_replicates(self):
        with pytest.raises(DesignError):
            DesignConfig(replicates=0)
