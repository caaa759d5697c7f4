import hashlib
import itertools
import math

import numpy as np
import pytest

from mixrobust import (DesignConfig, DesignError, TestScenario, build_run_plan,
                       cross_array, expand_plan, scenario_test_proportions,
                       simplex_centroid)
from mixrobust import design
from mixrobust.design import ALL_SCENARIOS, plan_to_csv
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
    def test_centroid_prints_six_decimals(self, reference_instance_plan):
        text = plan_to_csv(reference_instance_plan)
        assert "0.333333" in text
        assert "0.3333333" not in text

    def test_byte_stable(self, reference_instance_plan):
        assert plan_to_csv(reference_instance_plan) == plan_to_csv(reference_instance_plan)


# The plan bytes of 70 designs: each m with its covariate factorial, floor and
# replicates, under master seeds on both sides of each seed-word edge, with all
# scenarios and with REVERSE alone. Recorded when every instance seed came from
# its own derive_seed call and every test mixture from its own
# scenario_test_proportions call.
PLAN_SHAPES = {2: (((1, 0), (1, 0)), 0.01, 3), 3: (((1e-7, 0), (1e21, -2.5)), 0.01, 3),
               5: (((1, 0), (1, 0), (1, 0)), 0.01, 2), 8: (((1,), (0,)), 0.01, 2),
               10: (((0.5,), (0,)), 0.0, 1)}
PLAN_SEEDS = (0, 7, -3, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 70 + 3)
PLAN_SHA256 = {
    (2, 0, False): "f29ab085603aa0690da5c8de589653c915239ea7a4dff770a5263f8c39175053",
    (2, 0, True): "816341e138f6990ae92819ab1c2f4046d1f4d00bc5f3d14e601d7506724319c8",
    (2, 7, False): "bc62eced6257146bac024167dd566287b9047e8f4f21590ec8f4a0b8fa6b7166",
    (2, 7, True): "abca3b46a3b7ffea22368342cd5e9a7d4a92eed0e5d83284f3bddfd8b5fe808c",
    (2, -3, False): "7d87a4979a5e2795c2ef4cf310451129ff701e3c3b80612671dc681b6c7a3e39",
    (2, -3, True): "14b0de895955c7c0d50644710e1d77ab447ed2c79db5f5887f1d4fdf3a35207c",
    (2, 4294967295, False): "b06ae352c5b392d1e27be034887d4aac9ca2982bc204db62b3ed2dae7899987d",
    (2, 4294967295, True): "bba857f83ac859e63b64bbcfb73f1a8a7a0e5312a541ba69d5ee5dcf88b31320",
    (2, 4294967296, False): "6abd4c094107c08263d12431d059b7f53838bf9a27988757114f8b6532a4ecda",
    (2, 4294967296, True): "cbbc6cd94509bbb7e4269ae26549d2484d7974e97932db4697416b63c1cbddb0",
    (2, 18446744073709551615, False): "7770f0919cb3194afc172c02fbd4cf0279ee98fc668e6181739c9d7d5c01595c",
    (2, 18446744073709551615, True): "a82eff7b11b5ec6f79bca6cde08350d7d49a79c84e55e760b08196e0b8f89d35",
    (2, 1180591620717411303427, False): "25d480f47ca797b757f14f781897cf7b6978d2fc8bcb755d452b9218170b4a26",
    (2, 1180591620717411303427, True): "cda2424c264cd730a2f32b919d109a1f7ea1ee5fbe54fc3b58488a6c8c23bd12",
    (3, 0, False): "8ec9ad5f089a232bfda18d264102f2ee33c0e83b0eb6cabe12da303c55e4e19b",
    (3, 0, True): "187cd2112bd85ad69616a53157b2e93210ee8e6365525154d550c03a963166eb",
    (3, 7, False): "c2fd7020717d4377ea2f4a176a96f8b168c9b918072e6dcf28ee8662b3355a6a",
    (3, 7, True): "df7e61ce896c9004623b1a32bf74e6e73ab34c04f941a199502d424f775ede9b",
    (3, -3, False): "f7bf90c28cacd8208239ae880f79db906fc897e002eaf405dc67ebe0dd52410d",
    (3, -3, True): "7905a27424755e97d8eb3ded17d26491880224eb564072be9f017127e7526b5d",
    (3, 4294967295, False): "740eed2261b178d1135eb2d089b8a200693149b0e832b4415339805602e851b1",
    (3, 4294967295, True): "510258e57b8324810fd35613f1f3633132ff6d7be4a5f67cc56b8b1f86e99685",
    (3, 4294967296, False): "46a5c3e53c1f4c05bb4409cc729efc42092a6228d018e8884d44c3cbcb15a995",
    (3, 4294967296, True): "4c76145846e6b6e1c8441402006bf8d7ed021e19b1d88453e33785f2765ba29f",
    (3, 18446744073709551615, False): "70d5ada19bd3bff2a86a4813e29e7cd4a552d72dae7fdb4efc8602536f7d15c2",
    (3, 18446744073709551615, True): "1c8061491b6aa7c4cecedb1f3b4d6a5374b074ee8a807fc61feaedf293e82bc4",
    (3, 1180591620717411303427, False): "95e0b419b5eb16a33d073dc1553e6e398720df2f8a26e2df49161751ea74fb75",
    (3, 1180591620717411303427, True): "cb84aaf329bbc1ce42ea47357660fbe500d2f928d4b6cf63aa8525c4f4345a05",
    (5, 0, False): "de50adc66957c5ccce8d873db4a9d7ae6e9ea448268123a202439f4cd7dbba31",
    (5, 0, True): "f317f8f46f3f73bea31110d460799c07395793ba30400c18f3779214026c326b",
    (5, 7, False): "3e9a642291764d197fcfc00817a50c2681d394af2df7ebc7fef4c301ae203524",
    (5, 7, True): "176dfdce434f81e008d66ad3a94d739e5a8d5468a752934bd9e2f93bacbb2759",
    (5, -3, False): "9a5b746b3b25a77eb4207a2215d818980fe090e742a6fa9e8ab2c56c241aecb7",
    (5, -3, True): "8efcbc2650f4f40489385e6e1d1350a7f82f6a1b4caadfc208dce7c4d3365a9d",
    (5, 4294967295, False): "57574e1dd101070274ffab2b9711a890512e1aa4adf2c9552b16868791a03d85",
    (5, 4294967295, True): "9f166c4bc5f1bd27a1920cfb663de119b329aacca607a4a839c6891397cf958d",
    (5, 4294967296, False): "b49d3680242280a878fbea9d49dc44dfd9ad44e1ed2609c3bdd7e15b39510372",
    (5, 4294967296, True): "aa6701fab776b38c2c8065940aca043c5b2d61cd9b0530e93c9b1c2e634e207c",
    (5, 18446744073709551615, False): "615002953c15c911d7502795681c16aa0fc3b8d6ea404257a0e2bba4dfde31db",
    (5, 18446744073709551615, True): "2d71248f199d20ba6d2e7e79260f5571fd9f49ece4223f953038cccab3e8bdee",
    (5, 1180591620717411303427, False): "b78c8f17ec1c1ce9dc558f4c4278b7d4ecf2f5164b67b11f90d3c86d25a41b2b",
    (5, 1180591620717411303427, True): "d28d8d3f31325745b6e0d777eecb3e3ae4d3c5e4d1311bf75fc4b94e158e1470",
    (8, 0, False): "0613e87be1e60f80752af803389f76f4087081529c243d38bbfe8cb985096c67",
    (8, 0, True): "33f9041c3005e778ec864ea56e8a329337a960ca872ccbe89bf767635516aa2b",
    (8, 7, False): "e4a9b9be7896679623415800681ff7cd9b1ccb5c685c63f4d0a51b09b3bcff47",
    (8, 7, True): "f62eec41c07e08171570f8f31a5acd53f5402b09aeb7f9dde502b7d0da52972a",
    (8, -3, False): "ec7c02537fb49a3392bcb2970d04fd0698ecbbc2123adf3669c7b1128ffcdae0",
    (8, -3, True): "30eaa30c769a90a6fef64d7340055f066b3fd2f56155788c9bd3071d4e2e362c",
    (8, 4294967295, False): "dc87c84cb14b9db6112ded93f7e2bbb0ce4bb3584cec110392024940d0b00e04",
    (8, 4294967295, True): "843aedc578bf99d7446a6f5ab38e9dd7cb98c37b2e8926399f127f056db22610",
    (8, 4294967296, False): "da4bc6d6f669a771a67dca042932f40002646bdd589b1edf3488d9b8242551c8",
    (8, 4294967296, True): "017cacc873a33378e327878dd143e635815c25eb208f9538acec7f085aae9996",
    (8, 18446744073709551615, False): "70401ad326f5967a6fed5a223873c04c720f29e54b08f98ef1bc8d179fc81dd5",
    (8, 18446744073709551615, True): "11d6757301aaa514a26f0f8e7709751d0af7d407455a5fbca77ce1cdfeeb261b",
    (8, 1180591620717411303427, False): "1fa6d1bcdef183fd1ff5269b6c0921eed71f6be9fb10624e6e467a7985b357f2",
    (8, 1180591620717411303427, True): "58ecab38cee556f322f095354176b7856b9532fd9c143e6de60c61fce3c38c03",
    (10, 0, False): "9a3ba60300c982c04a6e9916888b896d2359ab9b40cf4dbe578f3e6cdf136b2f",
    (10, 0, True): "79df3d687310cb656fcc5b6b5080e2c920d69076e1600066956343ff0ddfd4d7",
    (10, 7, False): "f5c60492c5e6c2eacbcb5b1aff3fc285cccba0235a7d6b51c2075ceedae664a3",
    (10, 7, True): "c1361bb3d32979e970bfa9d4723a9ec24aca173a430f688c13f792fa75875c88",
    (10, -3, False): "b7a78869a194abe5840436bb65104fcc1a51524bac14f75bda0a64ec9cfd471a",
    (10, -3, True): "99c06fdb6f6d1115f0a632e5efda5ff0bb043508f5e3b7061d7383a657fd0ccd",
    (10, 4294967295, False): "93eb8832cefbf6067ca6ddcfa3f1588092731f257bb8d4a3c818b9eeb5a13f2c",
    (10, 4294967295, True): "9819fb20626e49a14fb69502fc8955b79ce8ba00d34c50ebafb77d9b61dbbf36",
    (10, 4294967296, False): "2b3d00fc48627d480b6db7704aecb326a4ba2e158f9a4de2cffedf8bc07da18c",
    (10, 4294967296, True): "002f810e4424b29eda029fd62e47da442f9bf6d917b4e6b4323cf63c82bd2042",
    (10, 18446744073709551615, False): "08a9abd0fbc9f1c37312dc1a892a104a048ef1577ba7edbce8d2283b713417d6",
    (10, 18446744073709551615, True): "3e4c367f5e9035d8aa01014a668025754ec523d864f26b011b659911d786d8ce",
    (10, 1180591620717411303427, False): "2dca9ff9e187ec7e865cdc11e6296e21287bdb3c8579e4186dc40f915c357051",
    (10, 1180591620717411303427, True): "69b9e602395f148f994194d829b09d90138c0e5385a7ed42173f1dc47f1d9757",
}


class TestPlanBytes:
    @pytest.mark.parametrize("m,seed,reverse_only",
                             list(itertools.product(PLAN_SHAPES, PLAN_SEEDS, (False, True))))
    def test_plan_csv_keeps_its_bytes(self, m, seed, reverse_only):
        levels, min_prop, replicates = PLAN_SHAPES[m]
        config = DesignConfig(m=m, covariate_levels=levels, min_prop=min_prop,
                              replicates=replicates, seed=seed)
        plan = build_run_plan(config, (TestScenario.REVERSE,) if reverse_only else ALL_SCENARIOS)
        digest = hashlib.sha256(plan_to_csv(plan).encode()).hexdigest()
        assert digest == PLAN_SHA256[m, seed, reverse_only]

    def test_signed_zero_points_keep_their_sign(self):
        """0.0 and -0.0 equal as floats, but CONSISTENT echoes each as given."""
        config = DesignConfig(m=2, covariate_levels=((1, 0), (1,)), min_prop=0.0)
        plan = expand_plan(cross_array([[0.0, 1.0], [-0.0, 1.0]], config),
                           (TestScenario.CONSISTENT,))
        signs = [math.copysign(1, run.test_mixture[0]) for run in plan.runs]
        assert signs == [1, -1] * 6


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

    @pytest.mark.parametrize("levels,match", [
        (((1, 1, 0), (1, 0)), "z1 lists level 1 twice"),
        (((1, 0), (0.0, -0.0)), "z2 lists level -0 twice"),  # one level, two signs
        (((1, 0), (1, 0), (math.nan, 0)), r"z3 levels \[nan, 0\.0\] must be finite"),
        (((1, -math.inf), (1, 0)), r"z1 levels \[1\.0, -inf\] must be finite"),
    ])
    def test_rejects_repeated_or_non_finite_level(self, levels, match):
        with pytest.raises(DesignError, match=f"^covariate_levels: {match}$"):
            DesignConfig(covariate_levels=levels)
