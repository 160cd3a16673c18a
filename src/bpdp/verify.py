"""Property suites behind the `verify` CLI subcommand.

Each suite returns a list of (name, passed, details) triples; the CLI
renders them as a pass/fail report, and the acceptance tests assert them.
The suites take no arguments: seeds, sizes and draw order are those of
the acceptance criteria (2 oracle, 3 stochasticity, 7 matrix, 8a
lattice), so `bpdp verify` runs exactly the checks the tests gate on.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .chain import (ChainParams, FROBOSE_STATES, TWO_NEIGHBOUR_STATES,
                    brute_force_hit_prob, compute_pi, frobose_transitions,
                    two_neighbour_transitions)
from .lattice_sim import (Rectangle, closure_frobose, closure_two_neighbour,
                          crossing, exact_event_prob, internally_filled,
                          locally_internally_filled,
                          rectangles_process_closure)
from .matrix_analysis import (char_poly_coeffs, closed_form_entry,
                              expected_char_poly_coeffs, lagrange_norm_bound,
                              matrix_power_entry, operator_norm,
                              perturbed_matrix)
from .special_functions import ModelParams
from .variational import (MonotonePath, W, W_f, holroyd_lower, optimal_path,
                          path_form_integral)

Check = Tuple[str, bool, str]

__all__ = ["SUITES", "run_suite"]


def suite_stochasticity() -> List[Check]:
    """Criterion 3: row sums at 100 random (w, h, p) per model."""
    rng = np.random.default_rng(np.random.Philox(321))
    worst = 0.0
    for _ in range(100):
        w = int(rng.integers(1, 60))
        h = int(rng.integers(1, 60))
        params = ModelParams(float(rng.uniform(0.005, 0.995)))
        for s in FROBOSE_STATES:
            total = math.fsum(r.linear_prob(w, h, params)
                              for r in frobose_transitions(s))
            worst = max(worst, abs(total - 1.0))
    sums = []
    for _ in range(100):
        w = int(rng.integers(1, 60))
        h = int(rng.integers(1, 60))
        params = ModelParams(float(rng.uniform(0.005, 0.5)))
        for s in TWO_NEIGHBOUR_STATES:
            rules = two_neighbour_transitions(s)
            if rules:
                sums.append(math.fsum(r.linear_prob(w, h, params)
                                      for r in rules))
    lo, hi = min(sums), max(sums)
    return [
        ("frobose rows sum to 1 (1e-12)", worst <= 1e-12,
         f"max |row sum - 1| = {worst:.3e}"),
        ("two-neighbour rows sub-stochastic", 0.0 < lo and hi <= 1.0 + 1e-12,
         f"smallest out-of-state sum = {lo:.6f}, largest - 1 = "
         f"{hi - 1.0:.3e}"),
    ]


def suite_oracle() -> List[Check]:
    """Criterion 2: DP against trajectory enumeration, L in 2..8."""
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7):
        for L in range(2, 9):
            for conv in ("exact", "at-least"):
                cp = ChainParams.from_p(p, threshold=L, convention=conv)
                d = compute_pi(cp).log_hit_prob
                b = brute_force_hit_prob(cp)
                worst = max(worst, abs(d - b))
    return [("DP equals brute force (1e-12, log domain)", worst <= 1e-12,
             f"max |log DP - log brute force| = {worst:.3e} over L in 2..8, "
             f"p in {{0.1,0.3,0.5,0.7}}")]


def suite_lattice() -> List[Check]:
    """Criterion 8a: closures, extremal bounds and stacking on random
    configurations."""
    rng = np.random.default_rng(np.random.Philox(555))
    big = Rectangle(-2, -2, 12, 12)
    differ = 0
    for _ in range(1000):
        n = int(rng.integers(0, 16))
        A = {(int(x), int(y)) for x, y in
             zip(rng.integers(0, 10, n), rng.integers(0, 10, n))}
        differ += (rectangles_process_closure(A, "two-neighbour")
                   != closure_two_neighbour(A, big))
        differ += (rectangles_process_closure(A, "frobose")
                   != closure_frobose(A, big))

    filled = below = crossings = unfilled = 0
    S = Rectangle(0, 0, 2, 2)
    for _ in range(600):
        w, h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        rect = Rectangle(0, 0, w, h)
        k = int(rng.integers(1, w * h + 1))
        A = {(int(x), int(y)) for x, y in
             zip(rng.integers(0, w, k), rng.integers(0, h, k))}
        for model, bound in (("two-neighbour", math.ceil((w + h) / 2)),
                             ("frobose", w + h - 1)):
            if internally_filled(rect, A, model):
                filled += 1
                below += len(A) < bound
            if internally_filled(S, A, model) and crossing(S, rect, A, model):
                crossings += 1
                unfilled += not internally_filled(rect, A | S.cells(), model)
    return [
        ("rectangles process == fixpoint closure", differ == 0,
         f"{differ} of 2000 closures differ"),
        ("extremal bound on filled samples", below == 0,
         f"{below} of {filled} filled rectangles below the bound"),
        ("stacking: filled small + crossing => filled big", unfilled == 0,
         f"{unfilled} of {crossings} crossings leave big unfilled"),
    ]


def suite_matrix() -> List[Check]:
    """Criterion 7: cycle-matrix powers, characteristic polynomial and the
    Lagrange bound at n = 12 on 100 random matrices."""
    worst_pow = 0.0
    for K in range(26):
        a = matrix_power_entry(K)
        b = closed_form_entry(K)
        worst_pow = max(worst_pow, abs(a - b) / max(b, 1.0))
    worst_cp = 0.0
    for P in (1e-2, 1e-4):
        got = char_poly_coeffs(perturbed_matrix(P) / math.sqrt(P))
        worst_cp = max(worst_cp, float(np.max(np.abs(
            got - expected_char_poly_coeffs(P)))))
    rng = np.random.default_rng(np.random.Philox(987))
    ratios = []
    while len(ratios) < 100:
        M = rng.normal(size=(6, 6))
        try:
            bound = lagrange_norm_bound(M, 12)
        except ValueError:
            continue
        ratios.append(float(bound / operator_norm(np.linalg.matrix_power(M, 12))))
    return [
        ("matrix power (0,3) == closed form, K<=25", worst_pow <= 1e-6,
         f"max rel diff = {worst_pow:.2e}"),
        ("characteristic polynomial factorisation", worst_cp <= 1e-10,
         f"max coeff diff = {worst_cp:.2e}"),
        ("Lagrange interpolation bound dominates |||M^12|||",
         min(ratios) >= 1.0 - 1e-12,
         f"min bound / |||M^12||| = {min(ratios):.3g} over 100 matrices"),
    ]


def suite_variational() -> List[Check]:
    rng = np.random.default_rng(np.random.Philox(23))
    out: List[Check] = []
    worst = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.5, 3.0))
        b = a + float(rng.uniform(0.5, 4.0))
        xs = np.sort(rng.uniform(a, b, 3))
        ys = np.sort(rng.uniform(a, b, 3))
        pts = [(a, a)] + list(zip(xs, ys)) + [(b, b)]
        path = MonotonePath(tuple(dict.fromkeys(pts)))
        val = path_form_integral(lambda x, y: (-(x - y), (x - y)), path)
        worst = max(worst, abs(val))
    out.append(("exact differential integrates to zero", worst <= 1e-10,
                f"max |integral| = {worst:.3e}"))

    ok = True
    base = MonotonePath(((1.0, 1.0), (2.0, 3.0), (5.0, 6.0)))
    refined = MonotonePath(((1.0, 1.0), (1.5, 2.0), (2.0, 3.0), (3.5, 4.5), (5.0, 6.0)))
    ok = ok and abs(W(base) - W(refined)) < 1e-10
    mirrored = MonotonePath(tuple((y, x) for x, y in base.vertices))
    ok = ok and abs(W(base) - W(mirrored)) < 1e-10
    out.append(("reparameterisation and symmetry invariance", ok, ""))

    params = ModelParams(0.3)
    worstname = ""
    ok = True
    wopt = W_f(optimal_path((1.0, 1.0), (4.0, 5.0)))
    for _ in range(50):
        xs = np.concatenate([[1.0], np.sort(rng.uniform(1.0, 4.0, 2)), [4.0]])
        ys = np.concatenate([[1.0], np.sort(rng.uniform(1.0, 5.0, 2)), [5.0]])
        path = MonotonePath(tuple(dict.fromkeys(zip(xs, ys))))
        if W_f(path) < wopt - 1e-9:
            ok = False
            worstname = f"{path.vertices}"
    out.append(("optimal path minimises W^F (sampled)", ok, worstname))

    lower = holroyd_lower((2, 2), params)
    rect = Rectangle(0, 0, 2, 2)
    exact = exact_event_prob(
        lambda A: locally_internally_filled(rect, A, "frobose"),
        rect.cells(), params)
    ok = lower <= math.log(exact) + 1e-12
    out.append(("a-priori lower bound below exact filling probability", ok,
                f"bound {lower:.4f} vs log prob {math.log(exact):.4f}"))
    return out


SUITES = {
    "stochasticity": suite_stochasticity,
    "oracle": suite_oracle,
    "lattice": suite_lattice,
    "matrix": suite_matrix,
    "variational": suite_variational,
}


def run_suite(name: str) -> List[Check]:
    if name == "all":
        return [check for suite in SUITES.values() for check in suite()]
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return fn()
