"""The Student-t p-value `mixmodel.two_sided_p` against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from mixrobust import two_sided_p

from reference_tables import DF, P_SPOT_CHECKS


def t_pdf(x, df):
    const = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
        / math.sqrt(df * math.pi)
    return const * (1 + x * x / df) ** (-(df + 1) / 2)


def tail_quadrature(x, df):
    """Independent high-precision oracle: P(0 <= T <= |x|), the density
    integrated from 0, so the two-sided p is 1 - 2 * tail."""
    tail, _ = integrate.quad(t_pdf, 0.0, abs(x), args=(df,),
                             epsabs=1e-13, epsrel=1e-13)
    return tail


class TestAgainstQuadrature:
    # abs 2e-9 on p = 1 - 2 * tail allows the quadrature 1e-9 on the tail
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 71, 120, 200])
    def test_cdf_matches_oracle_to_1e9(self, df):
        for t in [-40.0, -20.0, -5.0, -2.0, -1.0, -0.3, 0.0, 0.5, 1.0,
                  2.5, 8.0, 20.0, 40.0]:
            assert two_sided_p(t, df) == pytest.approx(1 - 2 * tail_quadrature(t, df),
                                                       abs=2e-9)

    def test_dense_grid_at_reference_df(self):
        for t in np.linspace(-40, 40, 41):
            assert two_sided_p(float(t), DF) == pytest.approx(
                1 - 2 * tail_quadrature(float(t), DF), abs=2e-9)


class TestBasicIdentities:
    def test_symmetry(self):
        for t in (0.3, 1.7, 9.0):
            assert two_sided_p(-t, 10) == two_sided_p(t, 10)

    def test_zero_is_half(self):
        # the distribution function is 1/2 at 0, so nothing lies beyond |t| = 0
        assert two_sided_p(0.0, 7) == pytest.approx(1.0, abs=1e-15)

    def test_two_sided_is_twice_upper_tail(self):
        for t in (0.5, 2.0, 4.5):
            upper = 0.5 - tail_quadrature(t, 33)
            assert two_sided_p(t, 33) == pytest.approx(2 * upper, abs=2e-9)
            assert two_sided_p(-t, 33) == two_sided_p(t, 33)

    def test_df_one_is_cauchy(self):
        # arctan form of the df=1 distribution: P(|T| >= |t|) = 1 - 2 atan(|t|) / pi
        for t in (-3.0, 0.7, 12.0):
            want = 1 - 2 * math.atan(abs(t)) / math.pi
            assert two_sided_p(t, 1) == pytest.approx(want, abs=2e-12)

    def test_rejects_fractional_df_below_one(self):
        with pytest.raises(ValueError):
            two_sided_p(1.0, 0)

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = float(rng.normal(scale=10))
            df = int(rng.integers(1, 200))
            p = two_sided_p(t, df)
            assert 0.0 < p <= 1.0


class TestReferenceSpotChecks:
    @pytest.mark.parametrize("t,p_ref", P_SPOT_CHECKS)
    def test_matches_printed_p_at_df_71(self, t, p_ref):
        assert two_sided_p(t, DF) == pytest.approx(p_ref, abs=0.005)

    def test_betainc_form_agrees_with_direct(self):
        for t in (0.758, 1.233, 1.919):
            direct = special.betainc(DF / 2, 0.5, DF / (DF + t * t))
            assert two_sided_p(t, DF) == pytest.approx(direct, abs=1e-15)
