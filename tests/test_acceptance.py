"""Acceptance gate: one test per criterion (criteria 8 and 9 have one per
part), each printing a pass/fail line.

Criteria 2, 3, 4, 6, 7, 8a and 8b are the `bpdp verify` suites
(``bpdp.verify``), which hold their seeds, sizes and bounds; the tests here
call them and assert every check, so the CLI and the gate run one
implementation.  The rest stay here: criteria 1 and 9b are the standing
failures below, each with its own diagnostic, and 9a is the other half of
criterion 9; criterion 5 fits the published table in tests/data, which
the package must not read; and criterion 8c draws 100000 samples
(20-30 s), which would make `bpdp verify` several times slower.

Criterion 1 (reproduction of the published growth-scale table) is known to
fail: the printed definition of the growth scale does not reproduce the
published table under either hit convention, and the publication's actual
code is not available to resolve the discrepancy.  The test runs the
calibration faithfully and reports the full diagnostic rather than
loosening the tolerance.  See README.md ("Known discrepancy") for the
analysis; the chain itself is validated against the lattice and against
exhaustive enumeration by criteria 2 and 8.

Criterion 9's parallel-speedup half is also known to fail: the level
sweep runs on one thread, so 8 "threads" take about as long as one, and
the test reports the measured ratio against its bound of 0.5.
Set BPDP_ACCEPTANCE_FULL=1 to also run the slow extended table check
(log2(1/p) in {9, 10}).
"""

import csv
import itertools
import math
import os
import pathlib
import time
from collections import Counter

import numpy as np
import pytest

from bpdp.chain import ChainParams, compute_pi, sample_trajectory
from bpdp.fitting import (PiDataset, fit_first_order,
                          fit_first_order_fixed_alpha, fit_four_param,
                          fit_second_order, fit_second_order_fixed_beta,
                          fit_third_order)
from bpdp.lattice_sim import Rectangle, explore
from bpdp.verify import (suite_bridge, suite_constants, suite_lattice,
                         suite_matrix, suite_oracle, suite_stochasticity,
                         suite_traversability)

DATA = pathlib.Path(__file__).parent / "data" / "table3.csv"
FULL = os.environ.get("BPDP_ACCEPTANCE_FULL") == "1"

PAPER_TABLE = {}
with open(DATA, newline="") as _fh:
    for _rec in csv.DictReader(_fh):
        PAPER_TABLE[int(_rec["log2_inv_p"])] = float(_rec["log_pi"])


def report(criterion, passed, details=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}  {details}")
    return passed


def report_suite(criterion, checks):
    """One report line for a `bpdp verify` suite; fails naming each failed
    check with its measured figure."""
    report(criterion, all(passed for _, passed, _ in checks),
           "; ".join(f"{name}: {details}" for name, _, details in checks))
    failed = [f"{name} ({details})" for name, passed, details in checks
              if not passed]
    assert not failed, "failed: " + "; ".join(failed)


class TestCriterion1TableReproduction:
    def test_table_values(self):
        # calibration: which hit convention reproduces the published value
        # at p = 2^-2 to 1e-9 relative?
        target2 = PAPER_TABLE[2]
        computed = {}
        for conv in ("exact", "at-least"):
            r = compute_pi(ChainParams.from_p(0.25, convention=conv))
            computed[conv] = r.log_pi
        calibrated = [conv for conv, v in computed.items()
                      if abs(v - target2) <= 1e-9 * abs(target2)]
        convention = calibrated[0] if calibrated else "exact"

        t0 = time.perf_counter()
        rows = {}
        for k in range(2, 9):
            params = ChainParams.from_p(2.0 ** -k, convention=convention)
            rows[k] = compute_pi(params).log_pi
        elapsed = time.perf_counter() - t0

        if FULL:
            t1 = time.perf_counter()
            for k in (9, 10):
                params = ChainParams.from_p(2.0 ** -k, convention=convention)
                rows[k] = compute_pi(params, threads=1).log_pi
            extended_elapsed = time.perf_counter() - t1
        else:
            extended_elapsed = None

        lines = [f"  k={k}: computed({convention})={rows[k]:.13g} "
                 f"published={PAPER_TABLE[k]:.13g} "
                 f"rel={abs(rows[k]-PAPER_TABLE[k])/PAPER_TABLE[k]:.3e}"
                 for k in sorted(rows)]
        ok_values = all(abs(rows[k] - PAPER_TABLE[k]) <= 1e-9 * PAPER_TABLE[k]
                        for k in rows)
        ok_runtime = elapsed <= 60.0
        ok = bool(calibrated) and ok_values and ok_runtime
        detail = (f"desk-scale runtime {elapsed:.1f}s (<=60s: {ok_runtime}); "
                  f"calibration at k=2: exact->{computed['exact']:.10g}, "
                  f"at-least->{computed['at-least']:.10g}, "
                  f"published {target2:.17g}")
        if extended_elapsed is not None:
            detail += f"; extended runtime {extended_elapsed:.0f}s"
        report(1, ok, detail)
        if not ok:
            pytest.fail(
                "published table not reproduced by the printed definition:\n"
                "neither hit convention matches at p=2^-2 "
                f"(exact: {computed['exact']:.12g}, at-least: "
                f"{computed['at-least']:.12g}, published {target2:.17g}).\n"
                "The chain itself is validated against exhaustive trajectory "
                "enumeration (criterion 2) and against the lattice dynamics "
                "(criterion 8); the published table was produced by code "
                "computing a different functional than the published "
                "definition pins down.  Full analysis in README.md.\n" +
                "\n".join(lines))


class TestCriterion2OracleEquivalence:
    def test_dp_equals_brute_force(self):
        report_suite(2, suite_oracle())


class TestCriterion3Stochasticity:
    def test_row_sums(self):
        report_suite(3, suite_stochasticity())


class TestCriterion4Constants:
    def test_quadrature_constants(self):
        report_suite(4, suite_constants())


class TestCriterion5Fitting:
    def test_published_fit_values(self):
        data = PiDataset(tuple(PAPER_TABLE.items()))
        t0 = time.perf_counter()
        a = fit_first_order(data)
        b = fit_first_order_fixed_alpha(data)
        c = fit_second_order(data)
        d = fit_second_order_fixed_beta(data)
        e = fit_third_order(data)
        q = fit_four_param(data)
        elapsed = time.perf_counter() - t0
        checks = [
            abs(a["alpha"] - 1.00676) <= 1e-4,
            abs(a["lambda1"] - 1.50499) <= 1e-4,
            abs(b["lambda1"] - 1.634555) <= 1e-4,
            abs(c["beta"] - 0.510037) <= 1e-4,
            abs(c["lambda2"] - 5.027234) <= 1e-4,
            abs(d["lambda2"] - 5.735441) <= 1e-4,
            abs(e["exponent"] - 0.19414) <= 1e-4,
            abs(q["alpha"] / 0.99978 - 1) <= 1e-3,
            abs(q["lambda1"] / 1.6507 - 1) <= 1e-3,
            abs(q["beta"] / 0.53239 - 1) <= 1e-3,
            abs(q["lambda2"] / 4.2518 - 1) <= 1e-3,
            elapsed <= 1.0,
        ]
        ok = all(checks)
        report(5, ok, f"(a) {a['alpha']:.5f}/{a['lambda1']:.5f} "
                      f"(b) {b['lambda1']:.6f} (c) {c['beta']:.6f}/"
                      f"{c['lambda2']:.6f} (d) {d['lambda2']:.6f} "
                      f"(3rd) {e['exponent']:.5f} (4fit) {q['alpha']:.5f}/"
                      f"{q['lambda1']:.4f}/{q['beta']:.5f}/{q['lambda2']:.4f}; "
                      f"runtime {elapsed:.2f}s")
        assert ok


class TestCriterion6RefinedTraversability:
    def test_closed_form_and_bracket(self):
        report_suite(6, suite_traversability())


class TestCriterion7MatrixSuite:
    def test_matrix_checks(self):
        report_suite(7, suite_matrix())


class TestCriterion8LatticeConsistency:
    def test_closures_and_bounds(self):
        report_suite("8a", suite_lattice())

    def test_markov_corollary_identity(self):
        report_suite("8b", suite_bridge())

    def test_exploration_vs_chain_frequencies(self):
        p = 0.3
        cap = 10
        n = 100_000
        params = ChainParams.from_p(p, threshold=cap)
        box = Rectangle(-12, -12, 13, 13)
        cells = sorted(box.cells() - {(0, 0)})
        rng = np.random.default_rng(np.random.Philox(777))

        explore_counts = Counter()
        for _ in range(n):
            mask = rng.random(len(cells)) < p
            A = set(itertools.compress(cells, mask.tolist()))
            A.add((0, 0))
            traj = explore(A, Rectangle(0, 0, 1, 1), box, max_phi=cap)
            for fr in traj:
                explore_counts[fr.projected()] += 1

        chain_counts = Counter()
        for seed in range(n):
            for state in sample_trajectory(params, seed):
                chain_counts[state] += 1

        states = set(explore_counts) | set(chain_counts)
        bad = []
        for st in states:
            f1 = explore_counts[st] / n
            f2 = chain_counts[st] / n
            se = math.sqrt(f1 * (1 - f1) / n + f2 * (1 - f2) / n)
            if abs(f1 - f2) > 4.0 * se and (explore_counts[st]
                                            + chain_counts[st]) > 5:
                bad.append((st, f1, f2, se))
        ok = not bad
        report("8c", ok, f"{len(states)} states compared over {n} samples"
                         + (f"; violations: {bad[:3]}" if bad else ""))
        assert ok


class TestCriterion9DeterminismAndScaling:
    def test_determinism_across_threads(self):
        params = ChainParams.from_p(2.0 ** -5)
        results = [compute_pi(params, threads=t).log_pi for t in (1, 2, 8)]
        ok = results[0] == results[1] == results[2]
        report("9a", ok, f"log_pi bit-identical across threads {{1,2,8}}: "
                         f"{results[0]!r}")
        assert ok

    def test_parallel_speedup(self):
        params = ChainParams.from_p(2.0 ** -8)
        compute_pi(ChainParams.from_p(2.0 ** -6), threads=8)  # warm up
        t0 = time.perf_counter()
        r1 = compute_pi(params, threads=1)
        single = time.perf_counter() - t0
        t0 = time.perf_counter()
        r8 = compute_pi(params, threads=8)
        parallel = time.perf_counter() - t0
        assert r1.log_pi == r8.log_pi
        ok = parallel <= 0.5 * single
        report("9b", ok, f"single {single:.2f}s, 8 threads {parallel:.2f}s, "
                         f"ratio {parallel/single:.2f} (need <= 0.5); "
                         f"host cpu count {os.cpu_count()}")
        if not ok:
            pytest.fail(
                f"8-thread wall time {parallel:.2f}s is not <= half the "
                f"single-thread wall time {single:.2f}s: measured ratio "
                f"{parallel/single:.2f} on a host with {os.cpu_count()} "
                "CPU(s).  The level sweep runs on one thread whatever "
                "`threads` says, so no speedup is expected; the result is "
                "bit-identical across thread counts (criterion 9a).")
