"""Scalar functions of the growth model and their integrals.

The cost of growing a rectangle one step is governed by

    f(z) = -log(1 - e^{-z}),          g(z) = -log beta(1 - e^{-z}),

with beta(u) = (u + sqrt(u(4-3u)))/2.  The entropy kernels h, h2 and the
modified-model kernel h2' control the second-order term of the growth
scale; their integrals give the constants

    int f = pi^2/6,   int g = pi^2/18,   int h = pi sqrt(2+sqrt2),
    int h2 ~= 7.054547.

All functions accept floats or numpy arrays and are careful about
cancellation and overflow at both ends (expm1/log1p kernels, stable
conjugate-root forms, e^{-z/2}-scaled tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)
TWO_PLUS_SQRT2 = 2.0 + SQRT2
SQRT_TWO_PLUS_SQRT2 = math.sqrt(TWO_PLUS_SQRT2)

# g takes -log beta(u) directly below this z and the e^{-2z}-exact form
# above it; the two forms' relative errors cross between 0.3 and 0.4.
_G_SWITCH = 0.35
# Past this z, e^{-z} < 1e-304 is below half an ulp of 1, so e^z - 1 and
# 2 sinh(z/2) equal e^z and e^{z/2} in double precision; e^z itself
# overflows at z = 709.78.
_LARGE_Z = 700.0

__all__ = [
    "ModelParams",
    "f", "beta", "beta_bar", "g", "alpha", "h", "h2", "h_mod",
    "traversability_x",
    "integrate", "QuadratureError", "constants",
]


@dataclass(frozen=True)
class ModelParams:
    """Infection probability p and its exponential rate q = -log(1-p)."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0,1), got {self.p}")
        object.__setattr__(self, "q", -math.log1p(-self.p))


def _as_positive(z, name="z"):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError(f"{name} must be positive")
    return z


def f(z):
    """f(z) = -log(1 - e^{-z}), decreasing and convex on (0, inf)."""
    z = _as_positive(z)
    small = z < 0.7
    out = np.where(
        small,
        -np.log(-np.expm1(-np.where(small, z, 1.0))),
        -np.log1p(-np.exp(-np.where(small, 1.0, z))),
    )
    return out if out.ndim else float(out)


def beta(u):
    """Larger root beta(u) = (u + sqrt(u(4-3u)))/2, maps (0,1) to (0,1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in (0,1)")
    out = 0.5 * (u + np.sqrt(u * (4.0 - 3.0 * u)))
    return out if out.ndim else float(out)


def beta_bar(u):
    """Conjugate root (u - sqrt(u(4-3u)))/2, computed as -u(1-u)/beta(u)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in (0,1)")
    out = -u * (1.0 - u) / beta(u)
    return out if out.ndim else float(out)


def g(z):
    """g(z) = -log beta(1 - e^{-z}); behaves like -(log z + sqrt z)/2 near 0
    and like e^{-2z} at infinity."""
    z = _as_positive(z)
    small = z < _G_SWITCH
    # Below the switch beta(u) is well away from 1 and its log is taken
    # directly, keeping full precision as z -> 0 where 1 - beta(u) -> 1.
    direct = -np.log(beta(-np.expm1(-np.where(small, z, 1.0))))
    zl = np.where(small, 1.0, z)
    eps = np.exp(-zl)
    u = -np.expm1(-zl)
    # 1 - beta(u) = 2(1-u)^2 / (2 - u + sqrt(u(4-3u))) with 1-u = e^{-z}
    # taken exactly, so the e^{-2z} tail survives even once u rounds to 1.
    omb = 2.0 * eps * eps / (2.0 - u + np.sqrt(u * (4.0 - 3.0 * u)))
    out = np.where(small, direct, -np.log1p(-omb))
    return out if out.ndim else float(out)


def alpha(z):
    """alpha(z) = 2 beta(u) / sqrt(u(4-3u)) with u = 1-e^{-z}; in (1,2)."""
    z = _as_positive(z)
    u = -np.expm1(-z)
    s = np.sqrt(u * (4.0 - 3.0 * u))
    out = (u + s) / s
    return out if out.ndim else float(out)


def _large_z_kernel(z):
    # h and h_mod past _LARGE_Z: sqrt(2+sqrt2) e^{-z/2}, which underflows
    # quietly to 0 instead of overflowing e^z
    return SQRT_TWO_PLUS_SQRT2 * np.exp(-0.5 * z)


def h(z):
    """Entropy kernel h(z) = sqrt((2+sqrt2)/(e^z - 1)), with the root of
    e^z - 1 taken on its own so that a subnormal z does not overflow the
    quotient."""
    z = _as_positive(z)
    big = z > _LARGE_Z
    out = np.where(big, _large_z_kernel(z),
                   SQRT_TWO_PLUS_SQRT2
                   / np.sqrt(np.expm1(np.where(big, 1.0, z))))
    return out if out.ndim else float(out)


def h2(z):
    """Two-neighbour entropy kernel alpha sqrt((2+sqrt2) e^{-2z} s) with
    s the sum of the deletion weight kernels exp(-f+3g), exp(-f+4g),
    2exp(-f+4g-z) and exp(-2f+5g-z).  The root is taken term by term, as
    e^{-z} e^{m/2} sqrt(sum c_i e^{t_i - m}) with m the largest exponent
    t_i, so neither s (about 3/z at small z) nor e^{-2z} leaves the double
    range."""
    z = _as_positive(z)
    fz, gz = f(z), g(z)
    t = np.stack([-fz + 3.0 * gz, -fz + 4.0 * gz, -fz + 4.0 * gz - z,
                  -2.0 * fz + 5.0 * gz - z])
    m = t.max(axis=0)
    e = np.exp(t - m)
    s = e[0] + e[1] + 2.0 * e[2] + e[3]
    out = (alpha(z) * SQRT_TWO_PLUS_SQRT2 * np.exp(-z) * np.exp(0.5 * m)
           * np.sqrt(s))
    return out if out.ndim else float(out)


def h_mod(z):
    """Modified-model kernel sqrt(2+sqrt2) / (2 sinh(z/2)); not integrable
    at 0."""
    z = _as_positive(z)
    big = z > _LARGE_Z
    out = np.where(big, _large_z_kernel(z),
                   SQRT_TWO_PLUS_SQRT2
                   / (2.0 * np.sinh(np.where(big, 1.0, z) / 2.0)))
    return out if out.ndim else float(out)


def traversability_x(n: int, u: float) -> float:
    """Closed form x_n = (beta^{n+1} - beta_bar^{n+1}) / (beta - beta_bar).

    With u the single-column occupation probability e^{-f(bq)}, x_n is the
    probability that an n-column rectangle of that height is traversable:
    x_0 = 1, x_1 = u, and x_{n+2} = x_{n+1} u + x_n (1-u) u.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    b1 = float(beta(u))
    b2 = float(beta_bar(u))
    return (b1 ** (n + 1) - b2 ** (n + 1)) / (b1 - b2)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """Raised when adaptive refinement fails to reach the tolerance."""


# G7-K15 nodes/weights on [-1, 1]; nodes are interior, so integrable
# endpoint singularities only slow refinement down rather than break it.
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _gk15(fn, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _K15_NODES
    y = np.array([fn(xi) for xi in x], dtype=float)
    k15 = half * float(np.dot(_K15_WEIGHTS, y))
    g7 = half * float(np.dot(_G7_WEIGHTS, y))
    return k15, abs(k15 - g7)


def integrate(fn, lower, upper, tol=1e-10, max_intervals=4096):
    """Adaptive G7-K15 quadrature of fn over (lower, upper).

    Endpoints are never evaluated, so integrable endpoint singularities
    (log, inverse square root) are handled by bisection alone.  The
    interval with the largest error estimate is refined until the summed
    estimate drops below tol; QuadratureError reports failure to get
    there within the interval budget.
    """
    if not upper > lower:
        raise ValueError("need upper > lower")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    import heapq
    val, err = _gk15(fn, lower, upper)
    heap = [(-err, lower, upper, val)]
    total_err = err
    while total_err > tol:
        if len(heap) >= max_intervals:
            raise QuadratureError(
                f"no convergence after {len(heap)} intervals: "
                f"error estimate {total_err:g} > tol {tol:g}")
        neg_err, a, b, _ = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err of the popped interval
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            raise QuadratureError(
                f"interval [{a}, {b}] cannot be refined further")
        for lo, hi in ((a, m), (m, b)):
            v, e = _gk15(fn, lo, hi)
            heapq.heappush(heap, (-e, lo, hi, v))
            total_err += e
    return math.fsum(item[3] for item in heap)


# Settings of the half-line integrals below: the split between the
# substituted head and the body, the cutoff past which the tail envelope
# is added in closed form, and the summed error tolerance.
_SPLIT = 1.0
_CUTOFF = 60.0
_TOL = 1e-10


def _integral_zero_to_inf(fn, tail_envelope):
    # z = t^2 removes 1/sqrt(z) singularities at 0; beyond the cutoff the
    # exponential envelope bound is added in closed form.
    head = integrate(lambda t: 2.0 * t * fn(t * t), 0.0, math.sqrt(_SPLIT),
                     tol=_TOL / 3)
    body = integrate(fn, _SPLIT, _CUTOFF, tol=_TOL / 3)
    return head + body + tail_envelope(_CUTOFF)


def constants():
    """Closed-form first/second-order constants plus the quadrature value
    of int h2 (no closed form is known for it)."""
    lambda2_2n = _integral_zero_to_inf(
        h2,
        # h2(z) <= 2 sqrt(2(2+sqrt2)) e^{-z} (1 + O(e^{-z})) at infinity
        lambda c: 2.0 * math.sqrt(2.0 * TWO_PLUS_SQRT2) * math.exp(-c),
    )
    return {
        "lambda1_f": math.pi ** 2 / 6.0,
        "lambda1": math.pi ** 2 / 18.0,
        "lambda2_f": math.pi * math.sqrt(TWO_PLUS_SQRT2),
        "lambda2_2n": lambda2_2n,
    }


def integral_f():
    """Quadrature of int_0^inf f, for checking against pi^2/6."""
    return _integral_zero_to_inf(f, lambda c: math.exp(-c))


def integral_g():
    """Quadrature of int_0^inf g, for checking against pi^2/18."""
    return _integral_zero_to_inf(g, lambda c: math.exp(-2.0 * c))


def integral_h():
    """Quadrature of int_0^inf h, for checking against pi sqrt(2+sqrt2)."""
    return _integral_zero_to_inf(
        h, lambda c: 2.0 * math.sqrt(TWO_PLUS_SQRT2) * math.exp(-c / 2.0))
