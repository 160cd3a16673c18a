import math

import numpy as np
import pytest

from bpdp.lattice_sim import (Rectangle, exact_event_prob, internally_filled,
                              locally_internally_filled, mc_estimate)
from bpdp.special_functions import ModelParams, f, g
from bpdp.variational import (MonotonePath, W, W_f, W_f_p, gamma_rect,
                              holroyd_lower, optimal_path, path_form_integral)


class TestMonotonePath:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotonePath(((0.0, 0.0),))
        with pytest.raises(ValueError):
            MonotonePath(((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(ValueError):
            MonotonePath(((1.0, 1.0), (0.5, 2.0)))
        with pytest.raises(ValueError):
            MonotonePath(((-1.0, 0.0), (1.0, 1.0)))


class TestWFunctionals:
    def test_horizontal_segment(self):
        # dy = 0: W^F = (c - a) f(b)
        path = MonotonePath(((1.0, 2.0), (4.0, 2.0)))
        assert W_f(path) == pytest.approx(3.0 * float(f(2.0)), rel=1e-10)

    def test_diagonal_to_40(self):
        path = MonotonePath(((0.0, 0.0), (40.0, 40.0)))
        assert W_f(path) == pytest.approx(2.0 * math.pi ** 2 / 6.0, abs=1e-6)

    def test_concatenation_additive(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mid = (float(rng.uniform(1.0, 3.0)), float(rng.uniform(1.0, 3.0)))
            end = (mid[0] + float(rng.uniform(0.5, 2.0)),
                   mid[1] + float(rng.uniform(0.5, 2.0)))
            whole = MonotonePath(((0.5, 0.5), mid, end))
            left = MonotonePath(((0.5, 0.5), mid))
            right = MonotonePath((mid, end))
            assert W(whole) == pytest.approx(W(left) + W(right), abs=1e-12)

    def test_scaling_identity(self):
        # W_f_p(path) = W_f(q * path) / q
        params = ModelParams(0.3)
        q = params.q
        path = MonotonePath(((1.0, 1.0), (2.0, 4.0), (6.0, 6.0)))
        scaled = MonotonePath(tuple((q * x, q * y) for x, y in path.vertices))
        assert W_f_p(path, params) == pytest.approx(W_f(scaled) / q, rel=1e-9)

    def test_reparameterisation_invariance(self):
        base = MonotonePath(((1.0, 1.0), (3.0, 4.0)))
        refined = MonotonePath(((1.0, 1.0), (2.0, 2.5), (3.0, 4.0)))
        assert abs(W(base) - W(refined)) < 1e-12
        assert abs(W_f(base) - W_f(refined)) < 1e-12

    def test_reflection_symmetry(self):
        path = MonotonePath(((0.5, 1.0), (2.0, 3.0), (4.0, 3.5)))
        mirrored = MonotonePath(tuple((y, x) for x, y in path.vertices))
        assert W(path) == pytest.approx(W(mirrored), rel=1e-12)

    def test_rejects_axis_segment(self):
        with pytest.raises(ValueError):
            W_f(MonotonePath(((0.0, 0.0), (0.0, 2.0), (1.0, 3.0))))

    def test_diagonal_corridor_limit(self):
        # staircases squeezed toward the diagonal approach 2/q int f
        params = ModelParams(0.2)
        q = params.q
        a, b = 2.0, 10.0
        target = 2.0 / q * (sum_f_between(a * q, b * q))
        prev_err = None
        for steps in (2, 8, 32):
            xs = np.linspace(a, b, steps + 1)
            pts = []
            for x0, x1 in zip(xs, xs[1:]):
                pts.append((x0, x0))
                pts.append((x0, x1))
            pts.append((b, b))
            path = MonotonePath(tuple(dict.fromkeys(pts)))
            err = abs(W_f_p(path, params) - target)
            if prev_err is not None:
                assert err < prev_err
            prev_err = err
        assert prev_err < 0.05 * target


def sum_f_between(z0, z1):
    from bpdp.special_functions import integrate
    return integrate(lambda z: float(f(z)), z0, z1, tol=1e-12)


class TestExactDifferential:
    def test_vanishes_on_diagonal_endpoints(self):
        # (x-y)(dy-dx) is exact: integral between diagonal points is zero
        rng = np.random.default_rng(22)
        form = lambda x, y: (-(x - y), (x - y))
        for _ in range(30):
            a = float(rng.uniform(0.5, 2.0))
            b = a + float(rng.uniform(1.0, 4.0))
            xs = np.concatenate([[a], np.sort(rng.uniform(a, b, 3)), [b]])
            ys = np.concatenate([[a], np.sort(rng.uniform(a, b, 3)), [b]])
            path = MonotonePath(tuple(dict.fromkeys(zip(xs, ys))))
            assert abs(path_form_integral(form, path)) < 1e-10


class TestOptimalPath:
    def test_three_cases(self):
        assert optimal_path((2, 5), (3, 7)).vertices == \
            ((2.0, 5.0), (3.0, 5.0), (3.0, 7.0))
        assert optimal_path((5, 2), (7, 3)).vertices == \
            ((5.0, 2.0), (5.0, 3.0), (7.0, 3.0))
        assert optimal_path((1, 1), (4, 4)).vertices == ((1.0, 1.0), (4.0, 4.0))
        assert optimal_path((2, 3), (6, 5)).vertices == \
            ((2.0, 3.0), (3.0, 3.0), (5.0, 5.0), (6.0, 5.0))

    def test_degenerate_segments_dropped(self):
        path = optimal_path((3, 3), (3, 3.0 + 4.0))
        assert len(path.vertices) == len(set(path.vertices))

    def test_seed_path(self):
        assert gamma_rect((4, 2)).vertices == ((0.0, 0.0), (2.0, 2.0), (4.0, 2.0))

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            optimal_path((3, 3), (2, 5))

    def test_minimises_w_on_samples(self):
        rng = np.random.default_rng(23)
        start, end = (1.0, 1.0), (5.0, 6.0)
        best = W(optimal_path(start, end))
        bestf = W_f(optimal_path(start, end))
        for _ in range(200):
            xs = np.concatenate([[start[0]], np.sort(rng.uniform(1.0, 5.0, 2)),
                                 [end[0]]])
            ys = np.concatenate([[start[1]], np.sort(rng.uniform(1.0, 6.0, 2)),
                                 [end[1]]])
            path = MonotonePath(tuple(dict.fromkeys(zip(xs, ys))))
            assert W(path) >= best - 1e-9
            assert W_f(path) >= bestf - 1e-9


class TestHolroydBounds:
    def test_unit_cell_is_germ_probability(self):
        params = ModelParams(0.3)
        assert holroyd_lower((1, 1), params) == pytest.approx(
            math.log(0.3), abs=1e-13)

    def test_lower_bound_below_exact_probability(self):
        for p in (0.2, 0.5):
            params = ModelParams(p)
            for dims in ((2, 2), (3, 2), (3, 3)):
                rect = Rectangle(0, 0, *dims)
                exact = exact_event_prob(
                    lambda A: locally_internally_filled(rect, A, "frobose"),
                    rect.cells(), params)
                assert holroyd_lower(dims, params) <= math.log(exact) + 1e-12

    def test_lower_bound_below_mc_filling(self):
        params = ModelParams(0.15)
        rect = Rectangle(0, 0, 5, 5)
        est = mc_estimate(lambda A: internally_filled(rect, A, "frobose"),
                          rect.cells(), params, 20000, seed=9)
        bound = math.exp(holroyd_lower((5, 5), params))
        assert bound <= est["p_hat"] + 3 * est["std_err"]
