import csv
import math
import pathlib

import numpy as np
import pytest

from bpdp.fitting import (FitError, LAMBDA1_F, LAMBDA2_F, PiDataset,
                          fit_first_order, fit_first_order_fixed_alpha,
                          fit_four_param, fit_second_order,
                          fit_second_order_fixed_beta, fit_third_order, linreg)

DATA = pathlib.Path(__file__).parent / "data" / "table3.csv"


def load_table3() -> PiDataset:
    rows = []
    with open(DATA, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append((int(rec["log2_inv_p"]), float(rec["log_pi"])))
    return PiDataset(tuple(rows))


class TestLinreg:
    def test_collinear_exact(self):
        pts = [(x, 2.0 * x - 1.0) for x in range(10)]
        r = linreg(pts, 4)
        assert r["slope"] == pytest.approx(2.0, abs=1e-14)
        assert r["intercept"] == pytest.approx(-1.0, abs=1e-13)

    def test_uses_last_k(self):
        pts = [(0.0, 100.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        r = linreg(pts, 3)
        assert r["slope"] == pytest.approx(1.0, abs=1e-14)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(41)
        pts = [(float(x), float(y)) for x, y in
               zip(rng.uniform(0, 5, 6), rng.uniform(0, 5, 6))]
        base = linreg(pts, 5)
        shifted = linreg([(x, y + 3.25) for x, y in pts], 5)
        assert shifted["slope"] == pytest.approx(base["slope"], abs=1e-12)
        assert shifted["intercept"] == pytest.approx(base["intercept"] + 3.25,
                                                     abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            linreg([(1.0, 2.0), (1.0, 3.0)], 2)
        with pytest.raises(ValueError):
            linreg([(1.0, 2.0)], 1)


class TestDataset:
    def test_sorts_and_validates(self):
        d = PiDataset(((3, 2.0), (2, 1.0)))
        assert d.rows == ((2, 1.0), (3, 2.0))
        with pytest.raises(ValueError):
            PiDataset(((2, 1.0), (2, 2.0)))
        with pytest.raises(ValueError):
            PiDataset(((2, 2.0), (3, 1.0)))


class TestPublishedFits:
    """The regression targets are the printed figure captions."""

    def test_first_order(self):
        r = fit_first_order(load_table3())
        assert r["alpha"] == pytest.approx(1.00676, abs=1e-4)
        assert r["lambda1"] == pytest.approx(1.50499, abs=1e-4)

    def test_first_order_fixed_alpha(self):
        r = fit_first_order_fixed_alpha(load_table3())
        assert r["lambda1"] == pytest.approx(1.634555, abs=1e-4)

    def test_second_order(self):
        r = fit_second_order(load_table3())
        assert r["beta"] == pytest.approx(0.510037, abs=1e-4)
        assert r["lambda2"] == pytest.approx(5.027234, abs=1e-4)

    def test_second_order_fixed_beta(self):
        r = fit_second_order_fixed_beta(load_table3())
        assert r["lambda2"] == pytest.approx(5.735441, abs=1e-4)

    def test_third_order(self):
        r = fit_third_order(load_table3())
        assert r["exponent"] == pytest.approx(0.19414, abs=1e-4)

    def test_third_order_residuals_positive_increasing(self):
        d = load_table3()
        res = d.log_pi - LAMBDA1_F / d.p + LAMBDA2_F / np.sqrt(d.p)
        assert np.all(res > 0)
        assert np.all(np.diff(res) > 0)

    def test_four_param(self):
        r = fit_four_param(load_table3())
        assert r["alpha"] == pytest.approx(0.99978, rel=1e-3)
        assert r["lambda1"] == pytest.approx(1.6507, rel=1e-3)
        assert r["beta"] == pytest.approx(0.53239, rel=1e-3)
        assert r["lambda2"] == pytest.approx(4.2518, rel=1e-3)
        assert r["residual"] <= 1e-8 * 213556.78508818566


class TestSyntheticRecovery:
    def test_second_order_recovers_exact_model(self):
        ks = range(8, 16)
        rows = tuple((k, LAMBDA1_F * 2.0 ** k - LAMBDA2_F * 2.0 ** (k / 2))
                     for k in ks)
        d = PiDataset(rows)
        r = fit_second_order(d)
        assert r["beta"] == pytest.approx(0.5, abs=1e-6)
        assert r["lambda2"] == pytest.approx(LAMBDA2_F, rel=1e-6)
        r = fit_second_order_fixed_beta(d)
        assert r["lambda2"] == pytest.approx(LAMBDA2_F, rel=1e-9)

    def test_third_order_recovers_quarter_exponent(self):
        ks = range(8, 16)
        rows = tuple(
            (k, LAMBDA1_F * 2.0 ** k - LAMBDA2_F * 2.0 ** (k / 2)
             + 0.8 * 2.0 ** (k / 4)) for k in ks)
        r = fit_third_order(PiDataset(rows))
        assert r["exponent"] == pytest.approx(0.25, abs=1e-3)

    def test_four_param_recovers_exact_model(self):
        a, l1, b, l2 = 0.97, 1.7, 0.55, 4.4
        rows = tuple((k, l1 * 2.0 ** (a * k) - l2 * 2.0 ** (b * k))
                     for k in range(10, 18))
        r = fit_four_param(PiDataset(rows))
        assert r["alpha"] == pytest.approx(a, abs=1e-8)
        assert r["lambda1"] == pytest.approx(l1, rel=1e-8)
        assert r["beta"] == pytest.approx(b, abs=1e-8)
        assert r["lambda2"] == pytest.approx(l2, rel=1e-8)

    def test_four_param_recovers_exact_model_at_large_k(self):
        # at k = 60..63 the fit's lambdas are rescaled in logarithms by
        # 2^(63 alpha) and 2^(63 beta); the second term is 2^-30 of log Pi,
        # resolved to only a few thousand roundings, so beta and lambda2
        # are loose
        rows = tuple((k, LAMBDA1_F * 2.0 ** k - LAMBDA2_F * 2.0 ** (k / 2))
                     for k in range(60, 64))
        r = fit_four_param(PiDataset(rows))
        assert r["alpha"] == pytest.approx(1.0, abs=1e-8)
        assert r["lambda1"] == pytest.approx(LAMBDA1_F, rel=1e-8)
        assert r["beta"] == pytest.approx(0.5, abs=1e-2)
        assert r["lambda2"] == pytest.approx(LAMBDA2_F, rel=1e-2)

    def test_four_param_permutation_safe(self):
        d = load_table3()
        shuffled = PiDataset(tuple(reversed(d.rows)))
        assert fit_four_param(d) == fit_four_param(shuffled)


class TestReproducibility:
    def test_bit_identical_reruns(self):
        d = load_table3()
        assert fit_four_param(d) == fit_four_param(d)
        assert fit_second_order(d) == fit_second_order(d)


class TestErrors:
    def test_negative_residual_rejected(self):
        # log Pi above lambda1/p makes the second-order residual negative
        rows = tuple((k, 2.0 * LAMBDA1_F * 2.0 ** k) for k in range(2, 8))
        with pytest.raises(FitError):
            fit_second_order(PiDataset(rows))

    def test_four_param_needs_four_rows(self):
        with pytest.raises(FitError):
            fit_four_param(PiDataset(((2, 1.0), (3, 2.0), (4, 4.0))))

    @pytest.mark.parametrize("first_k", [500, 1020])
    def test_four_param_refuses_unidentified_lambda2(self, first_k):
        # log Pi = lambda1 2^k - lambda2 2^(k/2): from k = 500 on the second
        # term is below 2^-250 of log Pi, far within its rounding, so the
        # rows determine no lambda2 (the fit found -5.7e57 and -3.1e132)
        rows = tuple((k, LAMBDA1_F * 2.0 ** k - LAMBDA2_F * 2.0 ** (k / 2))
                     for k in range(first_k, first_k + 4))
        with pytest.raises(FitError, match="lambda2 not identified"):
            fit_four_param(PiDataset(rows))
