"""Asymptotics extraction from computed growth-scale data.

The input is a table of (log2(1/p), log Pi) rows.  The successive fits
peel off the expansion log Pi ~ lambda1 p^-alpha - lambda2 p^-beta:
first (alpha, lambda1) from a log-log regression, then lambda1 with alpha
fixed at 1, then (beta, lambda2) from the residual against the exact
first-order term, then lambda2 with beta fixed at 1/2, then the third
order exponent against the exact first two terms.  A four-point
simultaneous fit solves for all four parameters at once.

The regressions use the last K_LAST = 3 data points and the four-point
fit the last four; all are deterministic: same input, bit-identical
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

LAMBDA1_F = math.pi ** 2 / 6.0
LAMBDA2_F = math.pi * math.sqrt(2.0 + math.sqrt(2.0))
K_LAST = 3

__all__ = [
    "PiDataset", "linreg",
    "fit_first_order", "fit_first_order_fixed_alpha",
    "fit_second_order", "fit_second_order_fixed_beta",
    "fit_third_order", "fit_four_param", "FitError",
    "LAMBDA1_F", "LAMBDA2_F",
]


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class PiDataset:
    """Rows (log2(1/p), log Pi), strictly increasing in both columns, with
    log2(1/p) in 1..1074, where p is a positive double below 1."""

    rows: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        rows = tuple((int(k), float(v)) for k, v in self.rows)
        rows = tuple(sorted(rows))
        object.__setattr__(self, "rows", rows)
        ks = [k for k, _ in rows]
        vs = [v for _, v in rows]
        if len(set(ks)) != len(ks):
            raise ValueError("duplicate abscissae")
        if not all(1 <= k <= 1074 for k in ks):
            raise ValueError("log2_inv_p must lie in 1..1074")
        if any(v1 <= v0 for v0, v1 in zip(vs, vs[1:])):
            raise ValueError("log Pi must be strictly increasing")

    @property
    def p(self) -> np.ndarray:
        return np.array([2.0 ** -k for k, _ in self.rows])

    @property
    def log_inv_p(self) -> np.ndarray:
        return np.array([k * math.log(2.0) for k, _ in self.rows])

    @property
    def log_pi(self) -> np.ndarray:
        return np.array([v for _, v in self.rows])


def _unit(values: np.ndarray) -> Tuple[int, np.ndarray]:
    """(e, values / 2^e), 2^e the power of two at or just above the
    largest magnitude (e = 0 when every value is 0)."""
    e = math.frexp(float(np.max(np.abs(values))))[1]
    return e, np.ldexp(values, -e)


def linreg(points: Sequence[Tuple[float, float]], k_last: int) -> dict:
    """Ordinary least squares over the last k_last points.  Abscissae and
    ordinates are each regressed in units of the power of two just above
    their largest magnitude (_unit), so neither the squares of 1/p nor
    the sum of log Pi near 2^1023 overflows; scaling by a power of two is
    exact, so the slope and intercept are those of the unscaled
    regression to the bit."""
    if k_last < 2:
        raise ValueError("need at least two points")
    if k_last > len(points):
        raise ValueError("k_last exceeds the number of points")
    pts = list(points)[-k_last:]
    ex, x = _unit(np.array([a for a, _ in pts]))
    ey, y = _unit(np.array([b for _, b in pts]))
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate abscissae")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    return {"slope": math.ldexp(slope, ey - ex),
            "intercept": math.ldexp(float(ybar - slope * xbar), ey)}


def fit_first_order(data: PiDataset) -> dict:
    """Regress log log Pi on log(1/p): slope estimates alpha, the
    exponentiated intercept estimates lambda1."""
    if np.any(data.log_pi <= 0.0):
        raise FitError("log Pi not positive")
    pts = list(zip(data.log_inv_p, np.log(data.log_pi)))
    r = linreg(pts, K_LAST)
    return {"alpha": r["slope"], "lambda1": math.exp(r["intercept"])}


def fit_first_order_fixed_alpha(data: PiDataset) -> dict:
    """Regress log Pi on 1/p (alpha fixed at 1): slope estimates lambda1."""
    r = linreg(list(zip(1.0 / data.p, data.log_pi)), K_LAST)
    return {"lambda1": r["slope"]}


def _second_order_residual(data: PiDataset) -> np.ndarray:
    res = LAMBDA1_F / data.p - data.log_pi
    if np.any(res <= 0.0):
        raise FitError("first-order residual not positive")
    return res


def fit_second_order(data: PiDataset) -> dict:
    """Regress log(lambda1/p - log Pi) on log(1/p): slope estimates beta,
    exponentiated intercept estimates lambda2 (alpha = 1, lambda1 = pi^2/6
    assumed exact)."""
    res = _second_order_residual(data)
    r = linreg(list(zip(data.log_inv_p, np.log(res))), K_LAST)
    return {"beta": r["slope"], "lambda2": math.exp(r["intercept"])}


def fit_second_order_fixed_beta(data: PiDataset) -> dict:
    """Regress (lambda1/p - log Pi) on 1/sqrt(p): slope estimates lambda2."""
    res = _second_order_residual(data)
    r = linreg(list(zip(1.0 / np.sqrt(data.p), res)), K_LAST)
    return {"lambda2": r["slope"]}


def fit_third_order(data: PiDataset) -> dict:
    """Regress log(log Pi - lambda1/p + lambda2/sqrt(p)) on log(1/p); the
    slope estimates the third-order exponent."""
    res = data.log_pi - LAMBDA1_F / data.p + LAMBDA2_F / np.sqrt(data.p)
    if np.any(res <= 0.0):
        raise FitError("third-order residual not positive")
    r = linreg(list(zip(data.log_inv_p, np.log(res))), K_LAST)
    return {"exponent": r["slope"], "intercept": r["intercept"]}


# stopping rule of the simplex: spread of its values, iteration budget
_SIMPLEX_TOL = 1e-12
_SIMPLEX_MAX_ITER = 2000
# fit_four_param's lambda2 counts as identified when its term exceeds this
# many roundings (2^-52) of the largest log Pi.  On rows lambda1 2^k -
# lambda2 2^(k/2) the fitted lambda2 errs by about 2^9 .. 2^11 roundings
# over the term (beta is fitted too), so the fits kept err by about 1% at
# most; from about k = 72 on the term is smaller and the fit is refused
_RESOLVED_ULPS = 2.0 ** 16


def _nelder_mead_2d(fn, x0):
    # classic simplex on two variables, deterministic
    pts = [np.array(x0, dtype=float)]
    for i in range(2):
        step = np.zeros(2)
        step[i] = 0.05
        pts.append(np.array(x0) + step)
    vals = [fn(pt) for pt in pts]
    for _ in range(_SIMPLEX_MAX_ITER):
        order = np.argsort(vals)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[-1] - vals[0] < _SIMPLEX_TOL and vals[0] < math.inf:
            break
        centroid = (pts[0] + pts[1]) / 2.0
        refl = centroid + (centroid - pts[2])
        fr = fn(refl)
        if fr < vals[0]:
            exp_ = centroid + 2.0 * (centroid - pts[2])
            fe = fn(exp_)
            if fe < fr:
                pts[2], vals[2] = exp_, fe
            else:
                pts[2], vals[2] = refl, fr
        elif fr < vals[1]:
            pts[2], vals[2] = refl, fr
        else:
            contr = centroid + 0.5 * (pts[2] - centroid)
            fc = fn(contr)
            if fc < vals[2]:
                pts[2], vals[2] = contr, fc
            else:
                for i in (1, 2):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = fn(pts[i])
    order = np.argsort(vals)
    return pts[order[0]], vals[order[0]]


def fit_four_param(data: PiDataset) -> dict:
    """Solve log Pi = lambda1 p^-alpha - lambda2 p^-beta on the last four
    points.  For fixed (alpha, beta) the system is linear in the lambdas;
    the outer search over (alpha, beta) is a direct simplex seeded at the
    theoretical (1, 1/2), with alpha > beta enforced.  The design is
    built from x = (1/p) / max(1/p) and the fit made to log Pi in units
    of 2^e (_unit), so no power, product or square overflows at any k;
    each lambda of that fit is rescaled at the end, in logarithms, by
    2^e max(1/p)^-exponent.  FitError when the residual exceeds 1e-6 of
    the largest log Pi, or when the second-order term stays within
    _RESOLVED_ULPS roundings of it, so that lambda2 is not identified
    (rows lambda1 2^k - lambda2 2^(k/2) from about k = 72 on)."""
    if len(data.rows) < 4:
        raise FitError("need at least four data points")
    rows = data.rows[-4:]
    k_max = rows[-1][0]
    x = np.array([2.0 ** (k - k_max) for k, _ in rows])   # (1/p) / max(1/p)
    y = np.array([v for _, v in rows])
    e, y_unit = _unit(y)

    def lambdas(ab):
        a, b = ab
        design = np.column_stack([x ** a, -(x ** b)])
        sol, *_ = np.linalg.lstsq(design, y_unit, rcond=None)
        resid = design @ sol - y_unit
        return sol, math.ldexp(float(np.sqrt(np.sum(resid ** 2))), e)

    def objective(ab):
        a, b = ab
        if not (b < a) or a <= 0.0 or b <= 0.0 or a > 3.0 or b > 3.0:
            return math.inf
        return lambdas(ab)[1]

    best, val = _nelder_mead_2d(objective, (1.0, 0.5))
    if not math.isfinite(val):
        raise FitError("four-parameter solver did not converge")
    (l1, l2), resid = lambdas(best)

    def unscaled(lam, exponent):
        if lam == 0.0:
            return 0.0
        return math.copysign(math.exp(math.log(abs(lam)) + (
            e - exponent * k_max) * math.log(2.0)), lam)

    # the second-order term, at its largest over the rows, against the
    # rounding of the largest log Pi (2^-52 of it), in the fit's units
    term = float(np.max(np.abs(l2 * x ** best[1])))
    resolved = term > _RESOLVED_ULPS * 2.0 ** -52 * float(
        np.max(np.abs(y_unit)))
    l1, l2 = unscaled(l1, best[0]), unscaled(l2, best[1])
    scale = float(np.max(np.abs(y)))
    if resid > 1e-6 * scale:
        raise FitError(f"four-parameter residual too large: {resid:g}")
    if not resolved:
        raise FitError("four-parameter second-order term within the rounding "
                       "of log Pi: lambda2 not identified")
    return {"alpha": float(best[0]), "lambda1": float(l1),
            "beta": float(best[1]), "lambda2": float(l2),
            "residual": resid}
