"""The 6x6 frame-state cycle matrices and their spectral analysis.

Both matrices are read off ``FROBOSE_TABLE``: entry (i, j) sums a weight
over the non-loop rules from state i to state j among the six contributing
frame states (0, 1, 2, 3, 2', 1'), with 1'' counted as 1 where it is a
target.  The unweighted matrix keeps the rank-one steps; its (0,3) entry at
odd powers has the closed form
((1-sqrt2)(2-sqrt2)^K + (1+sqrt2)(2+sqrt2)^K)/2.  The perturbed matrix
weighs buffer creations by a parameter, and its characteristic polynomial
factors as (X-1)(X+1)(X^4 - 4X^2 + 2 - 4X sqrt(P) - P) after scaling by
sqrt(P).  Powers, characteristic polynomials and roots are numpy's; the
closed forms stay as the references they are checked against.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .chain.rules import FROBOSE_TABLE, RANK, TransitionRule

__all__ = [
    "cycle_matrix", "matrix_power_entry", "closed_form_entry",
    "perturbed_matrix", "char_poly_coeffs", "expected_char_poly_coeffs",
    "perturbed_eigenvalues", "unperturbed_eigenvalues", "spectral_radius",
    "operator_norm", "lagrange_norm_bound",
]

SQRT2 = math.sqrt(2.0)

_STATES = ("0", "1", "2", "3", "2'", "1'")
_INDEX = {s: i for i, s in enumerate(_STATES)}


def _frame_matrix(weight: Callable[[TransitionRule], object],
                  dtype) -> np.ndarray:
    """Sum of weight(rule) over the non-loop FROBOSE_TABLE rules between
    the six states in _STATES order.  A rule into 1'' counts into 1 (the
    doubled 3 -> 1 entry); rules out of 1'' or into 4 drop out."""
    M = np.zeros((6, 6), dtype=dtype)
    for r in FROBOSE_TABLE:
        dst = "1" if r.dst == "1''" else r.dst
        if r.src in _INDEX and dst in _INDEX and r.src != dst:
            M[_INDEX[r.src], _INDEX[dst]] += weight(r)
    return M


def cycle_matrix() -> np.ndarray:
    """Adjacency of the rank-one non-loop transitions between frame states
    (0, 1, 2, 3, 2', 1'): the 6-cycle with one directed edge removed.
    Object dtype, so powers are exact Python ints."""
    return _frame_matrix(
        lambda r: int(abs(RANK[r.dst] - RANK[r.src]) == 1), object)


def matrix_power_entry(K: int) -> int:
    """Entry (0,3) of the (2K+3)-rd power, in exact integer arithmetic."""
    if K < 0:
        raise ValueError("K must be >= 0")
    return int(np.linalg.matrix_power(cycle_matrix(), 2 * K + 3)[0, 3])


def closed_form_entry(K: int) -> float:
    """((1-sqrt2)(2-sqrt2)^K + (1+sqrt2)(2+sqrt2)^K) / 2, which dominates
    (2+sqrt2)^K."""
    if K < 0:
        raise ValueError("K must be >= 0")
    return 0.5 * ((1.0 - SQRT2) * (2.0 - SQRT2) ** K
                  + (1.0 + SQRT2) * (2.0 + SQRT2) ** K)


def perturbed_matrix(P: float) -> np.ndarray:
    """Weighted matrix of the same transitions, buffer creations carrying
    weight P; the entry for 3 -> 1 is 2, absorbing the removed 1'' state."""
    if not 0.0 < P < 0.25:
        raise ValueError("P must lie in (0, 1/4)")
    return _frame_matrix(lambda r: P if r.dphi == 0 else 1.0, float)


def char_poly_coeffs(M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first."""
    return np.poly(np.asarray(M, dtype=float))


def expected_char_poly_coeffs(P: float) -> np.ndarray:
    """Coefficients of (X-1)(X+1)(X^4 - 4X^2 + 2 - 4X sqrt(P) - P)."""
    s = math.sqrt(P)
    return np.array([1.0, 0.0, -5.0, -4.0 * s, 6.0 - P, 4.0 * s, P - 2.0])


def unperturbed_eigenvalues() -> np.ndarray:
    """The six limits (+-1, +-sqrt(2-sqrt2), +-sqrt(2+sqrt2))."""
    s1 = math.sqrt(2.0 + SQRT2)
    s2 = math.sqrt(2.0 - SQRT2)
    return np.array([s1, 1.0, s2, -s2, -1.0, -s1])


def perturbed_eigenvalues(P: float) -> np.ndarray:
    """Eigenvalues of perturbed_matrix(P)/sqrt(P), by decreasing real part:
    +-1 and the four roots of the quartic factor."""
    s = math.sqrt(P)
    quartic = np.roots([1.0, 0.0, -4.0, -4.0 * s, 2.0 - P])
    roots = [1.0 + 0j, -1.0 + 0j, *quartic]
    return np.array(sorted(roots, key=lambda z: -z.real))


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a general square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


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
