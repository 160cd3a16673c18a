"""Path functionals of the growth cost and the a-priori bound built on them.

W integrates g(x) dy + g(y) dx along coordinatewise non-decreasing paths
in the quarter-plane (W^F uses f); the scaled variant W^F_p evaluates the
integrand at q-scaled coordinates.  The minimising path between two
corner points hugs the diagonal; along the seed path W^F_p gives a lower
bound on the locally-internally-filled probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .special_functions import ModelParams, f, g, integrate

__all__ = [
    "MonotonePath", "W", "W_f", "W_f_p", "path_form_integral",
    "gamma_rect", "optimal_path", "holroyd_lower",
]

Point = Tuple[float, float]

# summed quadrature error tolerance of each segment integral
_PATH_TOL = 1e-10


@dataclass(frozen=True)
class MonotonePath:
    """Piecewise-linear path with both coordinates non-decreasing."""

    vertices: Tuple[Point, ...]

    def __post_init__(self):
        vs = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 2:
            raise ValueError("a path needs at least two vertices")
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if (x1, y1) == (x0, y0):
                raise ValueError("consecutive vertices must be distinct")
            if x1 < x0 or y1 < y0:
                raise ValueError("coordinates must be non-decreasing")
        for x, y in vs:
            if x < 0 or y < 0:
                raise ValueError("path must stay in the quarter-plane")

    def segments(self):
        return list(zip(self.vertices, self.vertices[1:]))


def _segment_integral(kernel, p0: Point, p1: Point) -> float:
    """Integral of kernel(x) dy + kernel(y) dx over the segment p0 -> p1.

    The kernel diverges on the axes, so a segment whose interior touches
    an axis is rejected; an isolated singular start point (the origin of
    a seed path) is handled by the parameter substitution t = s^2.
    """
    (x0, y0), (x1, y1) = p0, p1
    dx, dy = x1 - x0, y1 - y0
    on_axis_0 = (x0 == 0.0 and dy > 0.0) or (y0 == 0.0 and dx > 0.0)
    on_axis_interior = (x0 == 0.0 and x1 == 0.0 and dy > 0.0) or \
                       (y0 == 0.0 and y1 == 0.0 and dx > 0.0)
    if on_axis_interior:
        raise ValueError("segment runs along a coordinate axis; "
                         "the integrand is singular there")

    def integrand(t):
        x = x0 + t * dx
        y = y0 + t * dy
        val = 0.0
        if dy:
            val += float(kernel(x)) * dy
        if dx:
            val += float(kernel(y)) * dx
        return val

    if on_axis_0:
        # t = s^2 clusters quadrature points at the singular endpoint
        return integrate(lambda s: 2.0 * s * integrand(s * s), 0.0, 1.0,
                         tol=_PATH_TOL)
    return integrate(integrand, 0.0, 1.0, tol=_PATH_TOL)


def _path_integral(kernel, path: MonotonePath) -> float:
    return math.fsum(_segment_integral(kernel, p0, p1)
                     for p0, p1 in path.segments())


def W(path: MonotonePath) -> float:
    """Integral of g(x) dy + g(y) dx along the path."""
    return _path_integral(g, path)


def W_f(path: MonotonePath) -> float:
    """Integral of f(x) dy + f(y) dx along the path."""
    return _path_integral(f, path)


def W_f_p(path: MonotonePath, params: ModelParams) -> float:
    """Integral of f(qx) dy + f(qy) dx; equals W^F(q*path)/q."""
    q = params.q
    return _path_integral(lambda z: f(q * z), path)


def path_form_integral(form: Callable[[float, float], Tuple[float, float]],
                       path: MonotonePath) -> float:
    """Line integral of a general 1-form P(x,y) dx + Q(x,y) dy."""
    total = 0.0
    for (x0, y0), (x1, y1) in path.segments():
        dx, dy = x1 - x0, y1 - y0

        def integrand(t):
            P, Q = form(x0 + t * dx, y0 + t * dy)
            return P * dx + Q * dy

        total += integrate(integrand, 0.0, 1.0, tol=_PATH_TOL)
    return total


def _dedup(points: Sequence[Point]) -> Tuple[Point, ...]:
    out = [points[0]]
    for pt in points[1:]:
        if pt != out[-1]:
            out.append(pt)
    return tuple(out)


def gamma_rect(dims: Tuple[float, float]) -> MonotonePath:
    """Seed path: diagonal from the origin, then off to (a, b)."""
    a, b = dims
    m = min(a, b)
    return MonotonePath(_dedup([(0.0, 0.0), (m, m), (a, b)]))


def optimal_path(small: Tuple[float, float],
                 big: Tuple[float, float]) -> MonotonePath:
    """Cost-minimising monotone path between corner points (a,b) -> (c,d):
    reach the diagonal, run along it, leave it -- unless one of the target
    sides is short enough that an L-shaped path is forced."""
    a, b = small
    c, d = big
    if not (a <= c and b <= d):
        raise ValueError("need small <= big coordinatewise")
    if d < a:
        pts = [(a, b), (a, d), (c, d)]
    elif c < b:
        pts = [(a, b), (c, b), (c, d)]
    else:
        m0 = max(a, b)
        m1 = min(c, d)
        pts = [(a, b), (m0, m0), (m1, m1), (c, d)]
    return MonotonePath(_dedup([(float(x), float(y)) for x, y in pts]))


def holroyd_lower(dims: Tuple[int, int], params: ModelParams) -> float:
    """Lower bound p exp(-W^F_p(gamma)) on the Frobose
    locally-internally-filled probability."""
    a, b = dims
    if a < 1 or b < 1:
        raise ValueError("dimensions must be >= 1")
    if (a, b) == (1, 1):
        # the seed path is degenerate: a single germ fills the cell
        return math.log(params.p)
    return math.log(params.p) - W_f_p(gamma_rect((float(a), float(b))), params)

