"""Property suites behind the `verify` CLI subcommand.

Each suite returns a list of (name, passed, details) triples; the CLI
renders them as a pass/fail report, and the acceptance tests assert them.
The suites take no arguments: seeds, sizes and draw order are those of
the acceptance criteria (2 oracle, 3 stochasticity, 4 constants,
6 traversability, 7 matrix, 8a lattice, 8b bridge), so `bpdp verify` runs
exactly the checks the tests gate on.  `variational` is a suite of its
own with no criterion behind it; tests/test_cli.py gates it, as it does
three criterion suites, by running `bpdp verify --suite variational` and
asserting that each of its four checks passes.

The other criteria stay in tests/test_acceptance.py: 1 (the published
table) and 9b (the thread speedup) are standing failures, each with its
own diagnostic, and 9a stays beside 9b as the other half of the one
criterion on thread counts; 5 fits the published table in tests/data,
which the package does not ship; and 8c draws 100000 samples, which would
make `verify` several times slower.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .chain import (ChainParams, FROBOSE_STATES, TWO_NEIGHBOUR_STATES,
                    brute_force_hit_prob, compute_pi, frobose_transitions,
                    two_neighbour_transitions)
from .lattice_sim import (FramedRectangle, Rectangle, closure_frobose,
                          closure_two_neighbour, crossing, exact_event_prob,
                          explore, internally_filled,
                          locally_internally_filled,
                          rectangles_process_closure, traversable)
from .matrix_analysis import (char_poly_coeffs, closed_form_entry,
                              expected_char_poly_coeffs, lagrange_norm_bound,
                              matrix_power_entry, operator_norm,
                              perturbed_matrix)
from .special_functions import (ModelParams, beta, beta_bar, constants, f,
                                g, integral_f, integral_g, integral_h,
                                traversability_x)
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


def suite_constants() -> List[Check]:
    """Criterion 4: the quadrature constants against their closed forms."""
    out = []
    for name, value, exact, bound in (
            ("int f == pi^2/6", integral_f(), math.pi ** 2 / 6.0, 1e-8),
            ("int g == pi^2/18", integral_g(), math.pi ** 2 / 18.0, 1e-8),
            ("int h == pi sqrt(2+sqrt2)", integral_h(),
             math.pi * math.sqrt(2.0 + math.sqrt(2.0)), 1e-8),
            ("int h2 == 7.054547", constants()["lambda2_2n"], 7.054547, 5e-6)):
        err = abs(value - exact)
        out.append((f"{name} ({bound:.0e})", err <= bound,
                    f"|error| = {err:.1e}"))
    return out


def suite_traversability() -> List[Check]:
    """Criterion 6: the closed form x_n against its recurrence, exact
    enumeration, the exp(-g) bracket and the refined ratio bound."""
    rng = np.random.default_rng(np.random.Philox(654))
    # closed form vs recurrence x_{n+2} = x_{n+1} u + x_n (1-u) u
    worst = 0.0
    bad_start = 0
    for _ in range(100):
        u = float(rng.uniform(1e-6, 1 - 1e-6))
        bad_start += (traversability_x(0, u) != 1.0
                      or abs(traversability_x(1, u) - u) > 1e-15)
        prev2, prev1 = 1.0, u
        for n in range(2, 201):
            cur = prev1 * u + prev2 * (1.0 - u) * u
            worst = max(worst, abs(traversability_x(n, u) - cur))
            prev2, prev1 = prev1, cur

    # x_n is the East-traversability probability: exact enumeration
    worst_exact = 0.0
    for (n, b, p) in ((2, 2, 0.3), (3, 2, 0.2), (4, 3, 0.5), (3, 3, 0.4)):
        params = ModelParams(p)
        rect = Rectangle(0, 0, n, b)
        direct = exact_event_prob(
            lambda A: traversable(rect, A, "east"), rect.cells(), params)
        u = math.exp(-float(f(b * params.q)))
        worst_exact = max(worst_exact, abs(direct - traversability_x(n, u)))

    # bracket: exp(-n g) >= x_n >= exp(-(n-1) g - f) >= p exp(-(n-1) g)
    outside = 0
    for p in (0.1, 0.3, 0.6):
        params = ModelParams(p)
        for b in (1, 2, 5, 9):
            gq = float(g(b * params.q))
            fq = float(f(b * params.q))
            u = math.exp(-fq)
            for n in (1, 2, 5, 10, 40):
                x = traversability_x(n, u)
                hi = math.exp(-n * gq)
                lo = math.exp(-(n - 1) * gq - fq)
                lo2 = p * math.exp(-(n - 1) * gq)
                # e^{-f(bq)} >= p with equality at b = 1
                outside += not (hi * (1 + 1e-12) >= x >= lo * (1 - 1e-12)
                                and lo >= lo2 * (1 - 1e-12))

    # refined ratio bound: x_n deviates from its geometric prefactor
    # beta^{n+1}/(beta - beta_bar) by at most (|beta_bar|/beta)^{n+1}
    beyond = 0
    for p in (0.2, 0.5):
        params = ModelParams(p)
        for b in (1, 3, 6):
            u = math.exp(-float(f(b * params.q)))
            b1, b2 = float(beta(u)), float(beta_bar(u))
            for n in (1, 3, 8, 20):
                approx = b1 ** (n + 1) / (b1 - b2)
                bound = (abs(b2) / b1) ** (n + 1)
                beyond += (abs(traversability_x(n, u) / approx - 1.0)
                           > bound + 1e-14)
    return [
        ("x_n satisfies its recurrence, n <= 200 (1e-12)",
         worst <= 1e-12 and bad_start == 0,
         f"max diff {worst:.2e}; x_0 or x_1 off at {bad_start} of 100 u"),
        ("x_n == P(East-traversable) by enumeration (1e-12)",
         worst_exact <= 1e-12, f"max diff {worst_exact:.2e} over 4 rectangles"),
        ("exp(-n g) >= x_n >= exp(-(n-1) g - f) >= p exp(-(n-1) g)",
         outside == 0, f"{outside} of 60 (p, b, n) outside"),
        ("refined bound |x_n / prefactor - 1| <= (|beta_bar|/beta)^(n+1)",
         beyond == 0, f"{beyond} of 24 (p, b, n) beyond"),
    ]


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


def suite_bridge() -> List[Check]:
    """Criterion 8b: P(exploration from the corner cell ends exactly at R)
    equals P(crossing) e^{-2(a+b) q}, by enumeration."""
    S = Rectangle(0, 0, 1, 1)
    worst = 0.0
    for R in (Rectangle(0, 0, 2, 2), Rectangle(0, 0, 3, 2)):
        box = R.expand(2)
        frame4 = FramedRectangle(R, "4").frame_cells()
        region = (R.cells() | frame4) - S.cells()
        # explore does not read p: each configuration's end is found once
        # and weighed under both p
        ends = {}

        def ends_at_R(A):
            key = frozenset(A)
            if key not in ends:
                last = explore(A | S.cells(), S, box)[-1]
                ends[key] = last.state == "4" and last.rect == R
            return ends[key]

        for p in (0.2, 0.5):
            params = ModelParams(p)
            lhs = exact_event_prob(ends_at_R, region, params)
            cross = exact_event_prob(
                lambda A: crossing(S, R, A, "frobose"),
                R.cells() - S.cells(), params)
            rhs = cross * math.exp(-2.0 * R.phi * params.q)
            worst = max(worst, abs(lhs - rhs))
    return [("P(explore ends at R) == P(crossing) e^(-2(a+b)q) (1e-12)",
             worst <= 1e-12,
             f"max diff {worst:.2e} over p in {{0.2,0.5}}, R in {{2x2,3x2}}")]


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
    "constants": suite_constants,
    "traversability": suite_traversability,
    "lattice": suite_lattice,
    "bridge": suite_bridge,
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
