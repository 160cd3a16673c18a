import math
import sys

import numpy as np
import pytest

from bpdp.special_functions import (ModelParams, QuadratureError, alpha, beta,
                                    beta_bar, constants, f, g, h, h2, h_mod,
                                    integral_f, integral_g, integral_h,
                                    integrate)

SQRT2 = math.sqrt(2.0)


class TestModelParams:
    def test_q_definition(self):
        mp = ModelParams(0.25)
        assert mp.q == pytest.approx(-math.log(0.75), rel=1e-15)

    def test_q_dominates_p(self):
        for p in (1e-6, 0.1, 0.5, 0.99):
            assert ModelParams(p).q > p

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            ModelParams(p)


class TestF:
    def test_log2_fixed_point(self):
        # 1 - e^{-log 2} = 1/2
        assert f(math.log(2.0)) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_small_z_asymptotics(self):
        z = 1e-6
        # f(z) = -log z + z/2 + O(z^2)
        assert f(z) == pytest.approx(-math.log(z) + z / 2.0, abs=1e-11)

    def test_direct_evaluation_at_10(self):
        want = -math.log(1.0 - math.exp(-10.0))
        assert f(10.0) == pytest.approx(want, rel=1e-8)

    def test_exp_identity(self):
        # e^{-f(z)} = 1 - e^{-z} exactly as an algebraic identity
        for z in np.exp(np.linspace(math.log(1e-8), math.log(30.0), 60)):
            assert math.exp(-f(z)) == pytest.approx(1.0 - math.exp(-z), abs=1e-14)

    def test_deep_tail_no_underflow_to_zero(self):
        assert f(40.0) == pytest.approx(math.exp(-40.0), rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f(0.0)
        with pytest.raises(ValueError):
            f(-1.0)


class TestBeta:
    def test_conjugate_root_sum(self):
        rng = np.random.default_rng(1)
        for u in rng.uniform(1e-6, 1 - 1e-6, 50):
            assert beta(u) + beta_bar(u) == pytest.approx(u, abs=1e-13)

    def test_conjugate_root_product(self):
        rng = np.random.default_rng(2)
        for u in rng.uniform(1e-6, 1 - 1e-6, 50):
            assert beta(u) * beta_bar(u) == pytest.approx(-u * (1 - u), abs=1e-14)

    def test_limit_at_one(self):
        assert beta(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_ranges(self):
        rng = np.random.default_rng(3)
        for u in rng.uniform(1e-6, 1 - 1e-6, 100):
            assert 0.0 < beta(u) < 1.0
            assert -1.0 / 3.0 <= beta_bar(u) < 0.0

    def test_rejects_out_of_range(self):
        for u in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                beta(u)


class TestG:
    def test_small_z(self):
        z = 1e-8
        want = -0.5 * (math.log(z) + math.sqrt(z))
        assert g(z) == pytest.approx(want, rel=1e-3)

    def test_large_z_tail(self):
        assert g(20.0) / math.exp(-40.0) == pytest.approx(1.0, abs=0.01)

    def test_below_f(self):
        rng = np.random.default_rng(4)
        for z in rng.uniform(0.01, 20.0, 50):
            assert g(z) <= f(z)

    def test_below_half_log(self):
        # used in the locality reduction: g(z) < -log(z)/2 for small z
        for z in np.linspace(1e-6, 0.01, 30):
            assert g(z) < -0.5 * math.log(z)

    @pytest.mark.parametrize("z", [1e-300, 1e-40, 1e-20, 1e-12])
    def test_direct_form_near_zero(self, z):
        # 1 - beta(u) rounds towards 1 here, so g must not go through it
        u = -math.expm1(-z)
        want = -math.log((u + math.sqrt(u * (4 - 3 * u))) / 2)
        assert g(z) == pytest.approx(want, rel=1e-14)

    def test_h2_finite_near_zero(self):
        assert math.isfinite(h2(1e-300))


class TestAlpha:
    def test_small_z(self):
        assert alpha(1e-8) == pytest.approx(1.0 + 0.5e-4, abs=1e-6)

    def test_large_z(self):
        assert alpha(30.0) == pytest.approx(2.0, abs=1e-12)

    def test_codomain(self):
        # above z ~ 36 the value 2 - 2e^{-z} rounds to 2.0 in binary64
        for z in np.exp(np.linspace(math.log(1e-8), math.log(30.0), 80)):
            assert 1.0 < alpha(z) < 2.0


# h and h2 at the bottom of the double range, subnormal z included: a
# 30-digit (mpmath) evaluation of their definitions at these doubles
PINNED_TINY_Z = [
    (5e-324, 8.31290874662229493609483932119e+161,
     1.43983803078335294973742072171e+162),
    (1e-310, 1.84775906502257633477046883163e+155,
     3.20041258076506698985914066758e+155),
    (sys.float_info.min, 1.23871993223164900185090889352e+154,
     2.14552585897349260708305347222e+154),
    (1e-300, 1.84775906502257348910478432892e+150,
     3.20041258076506206102159375365e+150),
]


class TestEntropyKernels:
    @pytest.mark.parametrize("z, want_h, want_h2", PINNED_TINY_Z)
    def test_pinned_tiny_z(self, z, want_h, want_h2):
        # a RuntimeWarning would fail the test (pyproject filterwarnings)
        assert h(z) == pytest.approx(want_h, rel=1e-13, abs=0.0)
        assert h2(z) == pytest.approx(want_h2, rel=1e-13, abs=0.0)

    def test_h_algebraic_identity(self):
        rng = np.random.default_rng(5)
        for z in rng.uniform(0.01, 20.0, 50):
            assert h(z) ** 2 * math.expm1(z) == pytest.approx(2.0 + SQRT2, rel=1e-12)

    def test_h_mod_two_forms(self):
        for z in np.exp(np.linspace(math.log(1e-6), math.log(30.0), 60)):
            closed = h_mod(z)
            other = math.sqrt((2.0 + SQRT2) * math.exp(-z) * math.exp(2.0 * f(z)))
            assert closed == pytest.approx(other, rel=1e-12)

    def test_h2_small_z(self):
        z = 1e-10
        assert h2(z) * math.sqrt(z) == pytest.approx(
            math.sqrt(3.0 * (2.0 + SQRT2)), rel=1e-4)

    def test_h2_large_z(self):
        z = 30.0
        assert h2(z) == pytest.approx(
            2.0 * math.sqrt(2.0 * (2.0 + SQRT2)) * math.exp(-z), rel=1e-10)

    def test_h2_over_h_ratio_ends(self):
        # sqrt(3) at zero, 2 sqrt(2) e^{-z/2} at infinity
        assert h2(1e-10) / h(1e-10) == pytest.approx(math.sqrt(3.0), rel=1e-4)
        z = 30.0
        assert h2(z) / h(z) == pytest.approx(
            2.0 * SQRT2 * math.exp(-z / 2.0), rel=1e-9)

    def test_large_z_scaled_form(self):
        # past e^z's overflow both kernels equal sqrt(2+sqrt2) e^{-z/2}
        want = math.sqrt(2.0 + SQRT2) * math.exp(-400.0)
        assert h(800.0) == pytest.approx(h_mod(800.0), rel=1e-13)
        assert h(800.0) == pytest.approx(want, rel=1e-13)

    def test_large_z_underflows_to_zero(self):
        # a RuntimeWarning would fail the test (pyproject filterwarnings)
        assert h(1e4) == 0.0
        assert h_mod(1e4) == 0.0

    def test_all_strictly_decreasing(self):
        zs = np.exp(np.linspace(math.log(1e-6), math.log(35.0), 120))
        for fn in (f, g, h, h2, h_mod):
            vals = np.array([float(fn(z)) for z in zs])
            assert np.all(np.diff(vals) < 0.0), fn.__name__


class TestQuadrature:
    def test_integral_f(self):
        assert integral_f() == pytest.approx(math.pi ** 2 / 6.0, abs=1e-8)

    def test_integral_g(self):
        assert integral_g() == pytest.approx(math.pi ** 2 / 18.0, abs=1e-8)

    def test_integral_h(self):
        assert integral_h() == pytest.approx(
            math.pi * math.sqrt(2.0 + SQRT2), abs=1e-8)

    def test_polynomial_exact(self):
        assert integrate(lambda x: 3 * x * x, 0.0, 2.0, tol=1e-12) == pytest.approx(
            8.0, abs=1e-10)

    def test_log_singularity(self):
        got = integrate(lambda x: -math.log(x), 0.0, 1.0, tol=1e-10)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_nonconvergence_reported(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10, max_intervals=64)

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)


class TestConstants:
    def test_values(self):
        c = constants()
        assert c["lambda2_f"] == pytest.approx(5.8049063, abs=1e-4)
        assert c["lambda2_f"] == pytest.approx(5.80490630427886, abs=1e-10)
        assert c["lambda2_2n"] == pytest.approx(7.054547, abs=5e-6)
        assert c["lambda1"] == pytest.approx(0.54831, abs=1e-5)
        assert c["lambda1_f"] == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
