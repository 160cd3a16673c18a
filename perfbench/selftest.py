"""Tests of the benchmark's own references and checks.

    python3 perfbench/selftest.py        (about ten seconds)

Each check must pass on correct outputs and reject a deliberately wrong
one; each reference must agree with the program's brute-force oracle.
"""

import math
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from bpdp.chain import (FROBOSE_TABLE, TWO_NEIGHBOUR_TABLE,  # noqa: E402
                        ChainParams, brute_force_hit_prob, sample_trajectory)

import reference  # noqa: E402

# log_pi of compute_pi (Frobose, exact) at p = 2^-k.
LADDER_LOG_PI = {2: 0.8511454810036815, 3: 3.466189049537295,
                 4: 10.836320446114039, 5: 28.721376830200917,
                 6: 69.12061898312882, 7: 156.7171630791103,
                 8: 341.83923822639156, 9: 726.4936572091515}


class ReferenceTest(unittest.TestCase):
    def test_sweep_matches_brute_force(self):
        # L up to the oracle's bound at p = 1/4 (k = 2); L <= 10 elsewhere.
        for p, top in ((0.25, 12), (0.1, 10), (0.5, 10), (0.7, 10)):
            for L in range(2, top + 1):
                for conv in ("exact", "at-least"):
                    bf = brute_force_hit_prob(
                        ChainParams.from_p(p, threshold=L, convention=conv))
                    got = reference.sweep_log_hit_prob(FROBOSE_TABLE, p, L, conv)
                    self.assertTrue(reference.log_close(got, bf, 1e-12),
                                    (p, L, conv, got, bf))

    def test_enumeration_matches_brute_force(self):
        for p in (0.1, 0.3, 0.5, 0.7):
            for L in range(2, 11):
                for conv in ("exact", "at-least"):
                    bf = brute_force_hit_prob(
                        ChainParams.from_p(p, threshold=L, convention=conv))
                    got = reference.enumerate_log_hit_prob(FROBOSE_TABLE, p, L, conv)
                    self.assertTrue(reference.log_close(got, bf, 1e-12),
                                    (p, L, conv, got, bf))

    def test_sweep_and_enumeration_agree_on_two_neighbour_rows(self):
        for p in (0.1, 0.7):
            for L in (5, 12):
                for conv in ("exact", "at-least"):
                    a = reference.sweep_log_hit_prob(TWO_NEIGHBOUR_TABLE, p, L, conv)
                    b = reference.enumerate_log_hit_prob(TWO_NEIGHBOUR_TABLE, p, L, conv)
                    self.assertTrue(reference.log_close(a, b, 1e-12), (p, L, conv))


class LadderCheckTest(unittest.TestCase):
    def args(self, log_pi):
        ref = {k: v for k, v in LADDER_LOG_PI.items() if k >= 3}
        k2_hit = -2.0 * LADDER_LOG_PI[2]
        return log_pi, ref, k2_hit, -2.0 * log_pi[2]

    def test_accepts_reference_values(self):
        self.assertEqual(reference.check_ladder(*self.args(dict(LADDER_LOG_PI))), [])

    def test_rejects_one_part_in_1e9(self):
        for k in LADDER_LOG_PI:
            wrong = dict(LADDER_LOG_PI)
            wrong[k] *= 1.0 + 1e-9
            self.assertNotEqual(reference.check_ladder(*self.args(wrong)), [], k)

    def test_rejects_non_increasing(self):
        log_pi = {k: 1.0 for k in LADDER_LOG_PI}
        self.assertTrue(any("not increasing" in p for p in
                            reference.check_ladder(log_pi, {}, -2.0, -2.0)))


class GridCheckTest(unittest.TestCase):
    def grid(self):
        values = {}
        for p in (0.1, 0.5):
            for L in (3, 7, 12):
                for conv in ("exact", "at-least"):
                    values[("frobose", p, L, conv)] = reference.enumerate_log_hit_prob(
                        FROBOSE_TABLE, p, L, conv)
        return values

    def test_accepts_enumeration(self):
        values = self.grid()
        self.assertEqual(reference.check_grid(values, dict(values)), [])

    def test_rejects_exact_above_at_least(self):
        # The enumeration is given the same wrong value, so only the
        # ordering property can catch it.
        values = self.grid()
        key = ("frobose", 0.5, 7, "exact")
        values[key] = values[("frobose", 0.5, 7, "at-least")] + 1e-6
        problems = reference.check_grid(values, dict(values))
        self.assertEqual(len(problems), 1)
        self.assertIn("above at-least", problems[0])

    def test_rejects_departure_from_enumeration(self):
        values = self.grid()
        wrong = dict(values)
        wrong[("frobose", 0.1, 12, "at-least")] += 1e-10
        self.assertNotEqual(reference.check_grid(wrong, values), [])


class FrequencyCheckTest(unittest.TestCase):
    N = 4000

    @classmethod
    def setUpClass(cls):
        params = ChainParams.from_p(0.3, threshold=10)

        def counts(seeds):
            c = Counter()
            for s in seeds:
                c.update(sample_trajectory(params, s))
            return c
        cls.a = counts(range(cls.N))
        cls.b = counts(range(cls.N, 2 * cls.N))

    def test_accepts_two_samples_of_one_law(self):
        problems, worst = reference.check_frequencies(self.a, self.b, self.N, self.N)
        self.assertEqual(problems, [])
        self.assertLess(worst, reference.frequency_limit(len(self.a)))

    def test_rejects_two_states_swapped(self):
        # The states ranked 10th and 20th by visits: neither certain nor rare.
        ranked = [s for s, _ in self.b.most_common()]
        s1, s2 = ranked[10], ranked[20]
        swapped = Counter(self.b)
        swapped[s1], swapped[s2] = self.b[s2], self.b[s1]
        problems, _ = reference.check_frequencies(self.a, swapped, self.N, self.N)
        self.assertEqual(len(problems), 2, problems)

    def test_limit_keeps_false_alarms_below_alpha(self):
        for m in (1, 300, 10_000):
            z = reference.frequency_limit(m)
            self.assertGreaterEqual(z, reference.FREQUENCY_MIN_SE)
            self.assertLessEqual(2 * m * math.exp(-z * z / 2),
                                 reference.FREQUENCY_FAMILY_ALPHA * (1 + 1e-9))


if __name__ == "__main__":
    unittest.main()
