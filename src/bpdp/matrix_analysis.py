"""The 6x6 frame-state cycle matrices and their spectral analysis.

The unweighted matrix counts non-loop transition words between the six
contributing frame states (0, 1, 2, 3, 2', 1'); its (0,3) entry at odd
powers has the closed form ((1-sqrt2)(2-sqrt2)^K + (1+sqrt2)(2+sqrt2)^K)/2.
The perturbed matrix weighs buffer creations by a parameter, and its
characteristic polynomial factors as
(X-1)(X+1)(X^4 - 4X^2 + 2 - 4X sqrt(P) - P) after scaling by sqrt(P).
The quartic factor is solved in closed form, so no general eigensolver is
needed for the cycle-matrix analysis; random-matrix norm bounds use
numpy's eigenvalues.
"""

from __future__ import annotations

import cmath
import math
from typing import List

import numpy as np

__all__ = [
    "cycle_matrix", "matrix_power_entry", "closed_form_entry",
    "perturbed_matrix", "char_poly_coeffs", "expected_char_poly_coeffs",
    "perturbed_eigenvalues", "unperturbed_eigenvalues", "spectral_radius",
    "operator_norm", "lagrange_norm_bound",
]

SQRT2 = math.sqrt(2.0)


def cycle_matrix() -> np.ndarray:
    """Adjacency of good non-loop transitions between frame states
    (0, 1, 2, 3, 2', 1'): the 6-cycle with one directed edge removed."""
    return np.array([
        [0, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [1, 0, 0, 0, 1, 0],
    ], dtype=object)


def matrix_power_entry(K: int) -> int:
    """Entry (0,3) of the (2K+3)-rd power, by exact integer multiplication."""
    if K < 0:
        raise ValueError("K must be >= 0")
    M = cycle_matrix()
    n = 2 * K + 3
    # plain square-and-multiply over Python ints
    result = np.eye(6, dtype=object)
    base = M
    e = n
    while e:
        if e & 1:
            result = result @ base
        base = base @ base
        e >>= 1
    return int(result[0, 3])


def closed_form_entry(K: int) -> float:
    """((1-sqrt2)(2-sqrt2)^K + (1+sqrt2)(2+sqrt2)^K) / 2, which dominates
    (2+sqrt2)^K."""
    if K < 0:
        raise ValueError("K must be >= 0")
    return 0.5 * ((1.0 - SQRT2) * (2.0 - SQRT2) ** K
                  + (1.0 + SQRT2) * (2.0 + SQRT2) ** K)


def perturbed_matrix(P: float) -> np.ndarray:
    """Weighted matrix with buffer creations carrying weight P; the entry
    for 3 -> 1 is doubled, absorbing the removed 1'' state."""
    if not 0.0 < P < 0.25:
        raise ValueError("P must lie in (0, 1/4)")
    return np.array([
        [0, P, 0, 0, 0, 0],
        [1, 0, P, 0, 0, 0],
        [1, 1, 0, P, 0, 0],
        [1, 2, 1, 0, 1, 1],
        [1, 0, 0, P, 0, 1],
        [1, 0, 0, 0, P, 0],
    ], dtype=float)


def char_poly_coeffs(M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    coeffs = [1.0]
    Mk = M.copy()
    for k in range(1, n + 1):
        ck = -np.trace(Mk) / k
        coeffs.append(ck)
        if k < n:
            Mk = M @ (Mk + ck * np.eye(n))
    return np.array(coeffs)


def expected_char_poly_coeffs(P: float) -> np.ndarray:
    """Coefficients of (X-1)(X+1)(X^4 - 4X^2 + 2 - 4X sqrt(P) - P)."""
    s = math.sqrt(P)
    return np.array([1.0, 0.0, -5.0, -4.0 * s, 6.0 - P, 4.0 * s, P - 2.0])


def _cubic_roots(a: float, b: float, c: float, d: float) -> List[complex]:
    # roots of a x^3 + b x^2 + c x + d via Cardano
    b, c, d = b / a, c / a, d / a
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = cmath.sqrt(disc)
    u = (-q / 2.0 + sq) ** (1.0 / 3.0) if abs(-q / 2.0 + sq) > abs(-q / 2.0 - sq) \
        else (-q / 2.0 - sq) ** (1.0 / 3.0)
    if u == 0:
        ys = [0.0, 0.0, 0.0]
    else:
        omega = complex(-0.5, math.sqrt(3.0) / 2.0)
        ys = [u * omega ** k + (-p / 3.0) / (u * omega ** k) for k in range(3)]
    return [y - b / 3.0 for y in ys]


def _depressed_quartic_roots(p: float, q: float, r: float) -> List[complex]:
    # roots of y^4 + p y^2 + q y + r via Ferrari's resolvent
    if abs(q) < 1e-300:
        roots = []
        for z in _quadratic_roots(1.0, p, r):
            s = cmath.sqrt(z)
            roots.extend([s, -s])
        return roots
    cands = _cubic_roots(8.0, 8.0 * p, 2.0 * p * p - 8.0 * r, -q * q)
    m = max((z for z in cands), key=lambda z: z.real)
    s = cmath.sqrt(2.0 * m)
    roots = []
    roots += _quadratic_roots(1.0, s, p / 2.0 + m - q / (2.0 * s))
    roots += _quadratic_roots(1.0, -s, p / 2.0 + m + q / (2.0 * s))
    return roots


def _quadratic_roots(a, b, c) -> List[complex]:
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    return [(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)]


def unperturbed_eigenvalues() -> np.ndarray:
    """The six limits (+-1, +-sqrt(2-sqrt2), +-sqrt(2+sqrt2))."""
    s1 = math.sqrt(2.0 + SQRT2)
    s2 = math.sqrt(2.0 - SQRT2)
    return np.array([s1, 1.0, s2, -s2, -1.0, -s1])


def perturbed_eigenvalues(P: float) -> np.ndarray:
    """Eigenvalues of perturbed_matrix(P)/sqrt(P) in closed form: +-1 and
    the four roots of the quartic factor."""
    s = math.sqrt(P)
    quartic = _depressed_quartic_roots(-4.0, -4.0 * s, 2.0 - P)
    roots = [1.0 + 0j, -1.0 + 0j] + quartic
    return np.array(sorted(roots, key=lambda z: -z.real))


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a general square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def perturbed_spectral_radius(P: float) -> float:
    """Spectral radius of perturbed_matrix(P) via the closed-form roots."""
    return math.sqrt(P) * float(np.max(np.abs(perturbed_eigenvalues(P))))


def operator_norm(M: np.ndarray) -> float:
    """Euclidean operator norm: the largest singular value."""
    return float(np.linalg.norm(np.asarray(M, dtype=float), 2))


def lagrange_norm_bound(M: np.ndarray, n: int) -> float:
    """Bound d (2 |||M||| / eps)^{d-1} rho(M)^n with eps the minimal
    eigenvalue gap and |||.||| the operator norm (|||I||| = 1); dominates
    |||M^n||| when all eigenvalues are distinct."""
    if n < 0:
        raise ValueError("n must be >= 0")
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    lam = np.linalg.eigvals(M)
    gaps = [abs(lam[i] - lam[j]) for i in range(d) for j in range(i + 1, d)]
    eps = min(gaps)
    if eps < 1e-9:
        raise ValueError(f"repeated eigenvalues (gap {eps:g})")
    rho = float(np.max(np.abs(lam)))
    return d * (2.0 * operator_norm(M) / eps) ** (d - 1) * rho ** n
