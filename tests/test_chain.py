import math

import numpy as np
import pytest

from bpdp.chain import (BRUTE_FORCE_MAX_L, ChainParams, FRAME_BUFFERS,
                        FROBOSE_STATES, FROBOSE_TABLE, RANK, ResourceCapError,
                        TWO_NEIGHBOUR_STATES, TWO_NEIGHBOUR_TABLE,
                        brute_force_hit_prob, compute_pi,
                        compute_two_neighbour_lower_bound, default_threshold,
                        TransitionRule, frobose_transitions,
                        sample_trajectory, two_neighbour_transitions)
from bpdp.chain import engine, oracle
from bpdp.special_functions import ModelParams, f


class TestFroboseTable:
    def test_row_counts(self):
        assert len(FROBOSE_TABLE) == 28
        counts = {s: len(frobose_transitions(s)) for s in FROBOSE_STATES}
        assert counts == {"0": 2, "1": 3, "1'": 3, "1''": 3,
                          "2": 4, "2'": 4, "3": 8, "4": 1}

    def test_state_zero_rules(self):
        rules = frobose_transitions("0")
        creation = next(r for r in rules if r.dst == "1")
        loop = next(r for r in rules if r.dst == "0")
        mp = ModelParams(0.3)
        # creation costs q*b, loop costs f(q*b)
        assert creation.linear_prob(4, 7, mp) == pytest.approx(
            math.exp(-7 * mp.q), rel=1e-14)
        assert loop.linear_prob(4, 7, mp) == pytest.approx(
            math.exp(-float(f(7 * mp.q))), rel=1e-14)
        assert (loop.gamma, loop.delta) == (1, 0)

    def test_state_three_targets(self):
        assert sorted(r.dst for r in frobose_transitions("3")) == \
            sorted(["4", "3", "2", "2'", "1", "1'", "1''", "0"])

    def test_absorbing_state(self):
        rules = frobose_transitions("4")
        assert len(rules) == 1
        assert rules[0].dst == "4" and rules[0].dphi == 0
        assert rules[0].linear_prob(3, 3, ModelParams(0.2)) == 1.0

    def test_each_pair_appears_once(self):
        pairs = [(r.src, r.dst) for r in FROBOSE_TABLE]
        assert len(pairs) == len(set(pairs))

    def test_offsets_bounded(self):
        assert all(r.alpha + r.beta + r.gamma + r.delta <= 4
                   for r in FROBOSE_TABLE)

    def test_costs_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mp = ModelParams(float(rng.uniform(0.01, 0.99)))
            w, h = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            for r in FROBOSE_TABLE:
                assert r.linear_prob(w, h, mp) <= 1.0 + 1e-12

    def test_dag_property(self):
        # every non-absorbing transition raises phi or, at fixed phi,
        # reveals buffers on top of the ones it had, so it raises the rank
        for r in FROBOSE_TABLE + TWO_NEIGHBOUR_TABLE:
            if r.src == r.dst and r.dphi == 0:
                continue  # absorbing self-loop
            assert r.dphi > 0 or (set(FRAME_BUFFERS[r.src])
                                  < set(FRAME_BUFFERS[r.dst]))
            assert r.dphi > 0 or RANK[r.dst] > RANK[r.src]


class TestTransitionProbabilities:
    def test_specific_rows(self):
        mp = ModelParams(0.3)
        w, h = 5, 7
        creation = next(r for r in frobose_transitions("0") if r.dst == "1")
        assert creation.linear_prob(w, h, mp) == pytest.approx(
            math.exp(-mp.q * h), rel=1e-14)
        deletion = next(r for r in frobose_transitions("1") if r.dst == "0")
        assert deletion.linear_prob(w, h, mp) == pytest.approx(
            mp.p * math.exp(-float(f(mp.q * w))), rel=1e-14)

    def test_stochasticity_at_3_5(self):
        mp = ModelParams(0.2)
        for s in FROBOSE_STATES:
            total = math.fsum(r.linear_prob(3, 5, mp)
                              for r in frobose_transitions(s))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_two_neighbour_substochastic(self):
        mp = ModelParams(0.1)
        for s in ("0", "1", "1'", "2", "2'", "3", "4"):
            rules = two_neighbour_transitions(s)
            total = math.fsum(r.linear_prob(4, 4, mp) for r in rules)
            assert 0.0 < total <= 1.0 + 1e-12

    def test_two_neighbour_state_zero(self):
        mp = ModelParams(0.1)
        rules = two_neighbour_transitions("0")
        assert len(rules) == 3
        creation = next(r for r in rules if r.dst == "1")
        assert creation.linear_prob(4, 6, mp) == pytest.approx(
            math.exp(-2 * mp.q * 6), rel=1e-14)

    def test_two_neighbour_absorbing(self):
        rules = two_neighbour_transitions("4")
        assert len(rules) == 1
        assert rules[0].linear_prob(2, 2, ModelParams(0.2)) == 1.0


class TestDefaultThreshold:
    def test_examples(self):
        assert default_threshold(0.25) == 12
        assert default_threshold(2.0 ** -5) == 222

    def test_chain_params(self):
        cp = ChainParams.from_p(0.25)
        assert cp.threshold == 12
        with pytest.raises(ValueError):
            ChainParams.from_p(0.3, threshold=1)
        with pytest.raises(ValueError):
            ChainParams.from_p(0.3, convention="sometimes")

    def test_not_finite_is_value_error(self):
        # 2 log(1/p) / p overflows below p of about 7.8e-306
        for p in (1e-310, 7.7e-306):
            with pytest.raises(ValueError, match="not finite"):
                default_threshold(p)


class TestComputePi:
    def test_trivial_threshold(self):
        for conv in ("exact", "at-least"):
            r = compute_pi(ChainParams.from_p(0.9, threshold=2, convention=conv))
            assert r.log_hit_prob == 0.0 and r.log_pi == 0.0

    def test_threshold_three_by_hand(self):
        # from (1,1,0): exact hit at 3 needs one phi-increasing move landing
        # on 3; the only contributions are the state-0 loop and, after a
        # creation, the state-1 loop, state-1'' deletions being unreachable.
        p = 0.3
        mp = ModelParams(p)
        q = mp.q
        loop0 = -math.expm1(-q)                      # 0->0 from (1,1)
        cr01 = math.exp(-q)
        loop1 = -math.expm1(-q) * (1 - p)            # 1->1 from (1,1)
        cr12 = math.exp(-q)
        loop2 = -math.expm1(-q) * (1 - p)
        cr23 = math.exp(-q)
        loop3 = -math.expm1(-q) * (1 - p) ** 2
        want = loop0 + cr01 * (loop1 + cr12 * (loop2 + cr23 * loop3))
        r = compute_pi(ChainParams.from_p(p, threshold=3))
        assert r.log_hit_prob == pytest.approx(math.log(want), abs=1e-13)

    def test_exact_vs_at_least_ordering(self):
        for p in (0.2, 0.5):
            cp_e = ChainParams.from_p(p, threshold=9, convention="exact")
            cp_a = ChainParams.from_p(p, threshold=9, convention="at-least")
            assert compute_pi(cp_a).log_hit_prob >= compute_pi(cp_e).log_hit_prob

    def test_memory_cap(self):
        with pytest.raises(ResourceCapError):
            compute_pi(ChainParams.from_p(0.01), memory_cap_bytes=1000)

    @pytest.mark.parametrize("p, L", [(5e-324, 3), (1e-315, 6), (1e-310, 4)])
    def test_overflowing_levels_raise(self, p, L):
        # every rule has a positive probability, so the hit probability is
        # never 0: at a subnormal p the level base's 1/p leaves the double
        # range, an error, not a log_hit_prob of -inf
        with pytest.raises(ArithmeticError, match=f"p={p!r}, L={L}"):
            compute_pi(ChainParams.from_p(p, threshold=L))

    def test_tiny_p_within_range_is_finite(self):
        for p, L in ((1e-100, 12), (1e-300, 4)):
            r = compute_pi(ChainParams.from_p(p, threshold=L))
            assert math.isfinite(r.log_hit_prob) and r.log_hit_prob < -1000

    @pytest.mark.parametrize("p, L, fails", [
        (1e-200, 6, True), (1e-300, 12, True),
        (1e-200, 5, False), (1e-150, 12, False)])
    def test_two_neighbour_tiny_p_fails_loudly(self, p, L, fails):
        # A known defect: the excerpt's levels fall by about sqrt(q) per
        # phi, which neither level base flattens, so at p = 1e-200 from
        # L = 6 on they leave the double range.  That must be an error
        # naming p and L, never a wrong number; pinned values replace the
        # failing points once the levels stay in range.
        cp = ChainParams.from_p(p, threshold=L)
        if fails:
            with pytest.raises(ArithmeticError, match=f"p={p!r}, L={L}"):
                compute_two_neighbour_lower_bound(cp)
        else:
            r = compute_two_neighbour_lower_bound(cp)
            assert math.isfinite(r.log_hit_prob)

    def test_thread_counts_bit_identical(self):
        cp = ChainParams.from_p(2.0 ** -4)
        vals = {compute_pi(cp, threads=t).log_pi for t in (1, 2, 8)}
        assert len(vals) == 1


# Regression values of log_pi at p = 2^-k, k = 2, 3, ...; a change to the
# sweep or the hit fold must reproduce them to 1e-12 relative.
PINNED_LOG_PI = {
    "exact": [0.8511454810036815, 3.466189049537295, 10.836320446114039,
              28.721376830200917, 69.12061898312882, 156.7171630791103,
              341.83923822639156, 726.4936572091515],
    "at-least": [0.732149173928087, 3.4055077644946463, 10.805610231895182,
                 28.70596102862407, 69.11289739863818, 156.71329261118507,
                 341.83729931672445],
}


@pytest.mark.parametrize("convention,k,want", [
    (conv, k, want) for conv, vals in PINNED_LOG_PI.items()
    for k, want in enumerate(vals, start=2)])
def test_pinned_log_pi(convention, k, want):
    r = compute_pi(ChainParams.from_p(2.0 ** -k, convention=convention))
    assert r.log_pi == pytest.approx(want, rel=1e-12, abs=0.0)


# Regression values of log_hit_prob at thresholds far above the default,
# where about half the live-window entries of the levels are below the
# smallest normal double after their fill (46% at p = 0.5, L = 2000, 51%
# at p = 0.9, L = 800, nearly all of them zeros: 1.5% and 1.1% of the
# entries are subnormal); the sweep keeps them, and zeroes only the columns
# at a window's ends that hold nothing else.  The values are those of a
# log-domain sweep, which drops nothing.  They are near 0, so the bound is
# 1e-12 absolute.
PINNED_LONG_LOG_HIT = [
    (compute_pi, 0.5, 2000, "exact", -0.12517933060712483),
    (compute_pi, 0.5, 2000, "at-least", -0.12481643474071319),
    (compute_pi, 0.9, 800, "exact", -0.0006061508378487409),
    (compute_two_neighbour_lower_bound, 0.5, 2000, "exact",
     -0.1811127038421229),
]


@pytest.mark.parametrize("fn,p,L,convention,want", PINNED_LONG_LOG_HIT)
def test_pinned_long_threshold(fn, p, L, convention, want):
    r = fn(ChainParams.from_p(p, threshold=L, convention=convention))
    assert r.log_hit_prob == pytest.approx(want, rel=0.0, abs=1e-12)


# Regression values of log_hit_prob at tiny p, where the hit probability
# spans most of the double range.  The values are those of a 50-digit
# (mpmath) enumeration of the table's trajectories; the bound is 1e-12
# relative.
PINNED_TINY_P_LOG_HIT = [
    (1e-50, 5, -340.82341575763901634),
    (1e-50, 12, -1131.999533069664023),
    (1e-100, 5, -686.21117970674586891),
    (1e-100, 12, -2283.2920795666868648),
    (1e-110, 5, -755.28873249656723933),
    (1e-110, 12, -2513.5505888660914329),
    (1e-150, 5, -1031.5989436558527216),
    (1e-150, 12, -3434.5846260637097070),
    (1e-200, 6, -1835.6930495754084508),
    (1e-300, 5, -2067.7622355031732793),
    (1e-300, 6, -2756.7270867730267243),
]


@pytest.mark.parametrize("p,L,want", PINNED_TINY_P_LOG_HIT)
def test_pinned_tiny_p(p, L, want):
    r = compute_pi(ChainParams.from_p(p, threshold=L))
    assert r.log_hit_prob == pytest.approx(want, rel=1e-12, abs=0.0)


def test_tiny_p_scaling_law():
    # At tiny p the law of a path within a level no longer depends on q,
    # and each of the L - 2 levels costs a factor q, so log P(hit) moves by
    # (L - 2) log(q / q') from p' to p; at L = 12000 the levels at
    # p = 1e-40 must not drift from those at p' = 1e-12.
    L = 12000
    got, ref = (compute_pi(ChainParams.from_p(p, threshold=L))
                for p in (1e-40, 1e-12))
    law = (L - 2) * math.log(got.q / ref.q)
    assert abs(got.log_hit_prob - ref.log_hit_prob - law) <= 1e-3


def test_cells_swept():
    # Up to L = 12 no column falls below the smallest normal double, so
    # every level is filled over all its widths; at p = 0.9, L = 800 the
    # dropped tails leave 63% of the cells.
    for fn in (compute_pi, compute_two_neighbour_lower_bound):
        for L in (2, 3, 7, 12):
            r = fn(ChainParams.from_p(0.3, threshold=L))
            assert r.cells_swept == (L - 1) * (L - 2) // 2
    fn, p, L, convention, want = PINNED_LONG_LOG_HIT[2]
    r = fn(ChainParams.from_p(p, threshold=L, convention=convention))
    assert r.cells_swept < 0.7 * (L - 1) * (L - 2) // 2
    assert r.log_hit_prob == pytest.approx(want, rel=0.0, abs=1e-12)


class TestBruteForceOracle:
    def test_trivial(self):
        assert brute_force_hit_prob(ChainParams.from_p(0.4, threshold=2)) == 0.0

    def test_rejects_large_threshold(self):
        with pytest.raises(ValueError):
            brute_force_hit_prob(ChainParams.from_p(0.3,
                                                    threshold=BRUTE_FORCE_MAX_L + 1))


class TestSampleTrajectory:
    def test_starts_at_seed(self):
        traj = sample_trajectory(ChainParams.from_p(0.3, threshold=8), seed=1)
        assert traj[0] == (1, 1, "0")

    def test_reproducible(self):
        cp = ChainParams.from_p(0.3, threshold=8)
        assert sample_trajectory(cp, seed=42) == sample_trajectory(cp, seed=42)

    def test_phi_nondecreasing(self):
        cp = ChainParams.from_p(0.4, threshold=10)
        for seed in range(50):
            traj = sample_trajectory(cp, seed=seed)
            phis = [w + h for (w, h, s) in traj]
            assert all(b >= a for a, b in zip(phis, phis[1:]))

    def test_first_transition_frequency(self):
        # 0 -> 1 happens with probability e^{-q} from (1,1)
        p = 0.3
        cp = ChainParams.from_p(p, threshold=6)
        n = 100_000
        hits = sum(sample_trajectory(cp, seed=s)[1][2] == "1" for s in range(n))
        want = math.exp(-ModelParams(p).q)   # = 1 - p
        se = math.sqrt(want * (1 - want) / n)
        assert abs(hits / n - want) <= 3 * se


def reference_trajectory(params, seed):
    """The sampler as a plain loop: one rng.random() per step, and the
    first rule whose running sum of linear_prob exceeds it."""
    rng = np.random.Generator(np.random.Philox(seed))
    w, h, s = 1, 1, "0"
    out = [(w, h, s)]
    while s != "4" and w + h < params.threshold:
        u = rng.random()
        acc = 0.0
        for rule in frobose_transitions(s):
            acc += rule.linear_prob(w, h, params.model)
            if u < acc:
                break
        else:
            break   # float dust
        w, h, s = w + rule.dw, h + rule.dh, rule.dst
        out.append((w, h, s))
    return out


class TestSampleTrajectoryTable:
    """The tabulated sampler against the plain loop, bit for bit."""

    def test_matches_reference_loop(self):
        # (0.3, 60) runs past one and two 16-draw blocks; the calls
        # alternate between models so the per-model rows cannot mix
        cases = [ChainParams.from_p(p, threshold=L)
                 for p, L in ((0.3, 10), (0.05, 60), (0.9, 6), (0.3, 60))]
        longest = 0
        for seed in range(5000):
            for cp in cases:
                got = sample_trajectory(cp, seed)
                assert got == reference_trajectory(cp, seed), (cp, seed)
                longest = max(longest, len(got) - 1)
        assert longest > 32

    def test_full_table_is_emptied(self, monkeypatch):
        monkeypatch.setattr(oracle, "_ROWS_PER_MODEL", 4)
        oracle._running_sums.cache_clear()   # rows other tests built
        cp = ChainParams.from_p(0.3, threshold=60)
        for seed in range(200):
            assert sample_trajectory(cp, seed) == reference_trajectory(cp, seed)
        assert len(oracle._running_sums(cp.model)) <= 4

    def test_pinned_trajectories(self):
        cp = ChainParams.from_p(0.3, threshold=10)
        assert [sample_trajectory(cp, seed) for seed in range(5)] == [
            [(1, 1, "0"), (1, 1, "1"), (1, 1, "2"), (1, 1, "3"), (1, 1, "4")],
            [(1, 1, "0"), (1, 1, "1"), (1, 1, "2"), (1, 1, "3"), (1, 2, "3"),
             (1, 2, "4")],
            [(1, 1, "0"), (1, 1, "1"), (1, 2, "1"), (1, 3, "1"), (1, 4, "1"),
             (1, 4, "2"), (2, 4, "2"), (2, 4, "3"), (2, 5, "3"), (2, 5, "4")],
            [(1, 1, "0"), (1, 1, "1"), (1, 1, "2"), (1, 1, "3"),
             (3, 2, "1''"), (4, 3, "0"), (5, 3, "0"), (6, 3, "0"),
             (7, 3, "0")],
            [(1, 1, "0"), (1, 1, "1"), (1, 2, "1"), (2, 3, "0"), (3, 3, "0"),
             (4, 3, "0"), (5, 3, "0"), (6, 3, "0"), (7, 3, "0")],
        ]


class TestTwoNeighbourLowerBound:
    def test_runs_and_is_labelled(self):
        r = compute_two_neighbour_lower_bound(ChainParams.from_p(0.2, threshold=20))
        assert r.model == "two-neighbour-lower-bound"
        assert r.log_hit_prob < 0.0


def plain_edges(plan):
    """The plan's edges that its gauge makes plain adds."""
    return [e for e in plan.edges
            if plan.factors[e[5]] == (engine._UNIT, (), ())]


class TestLumping:
    """The engine sweeps the coarsest strong lumping of each table."""

    def test_frobose_blocks(self):
        plan = engine._FROBOSE_PLAN
        assert plan.blocks == (("0",), ("1", "1'"), ("1''",), ("2", "2'"),
                               ("3",), ("4",))
        assert plan.rows == ("0", "1", "1''", "2", "3")
        assert len(plan.edges) == 17
        assert sum(e[0] > 0 for e in plan.edges) == 13

    def test_two_neighbour_is_not_lumped(self):
        # 1 and 1' loop with e^{-2q} and e^{-4q}
        plan = engine._TWO_NEIGHBOUR_PLAN
        assert plan.blocks == tuple((s,) for s in TWO_NEIGHBOUR_STATES)
        assert all(len(e[6]) == 1 for e in plan.edges)

    def test_frobose_shared_terms_and_plain_edges(self):
        # Every moving rule out of a Frobose row carries the chance that
        # the side buffer holds an infection, 1 - e^{-q side}: the height
        # for rows 0, 1'' and 2, the width for 1 and 3.  With it factored
        # out, the gauge leaves 11 of the 13 moving edges plain adds; 3 to
        # 1'' (1/2) and 3 to 0 ((4 - 3p) e^q / 2) keep a constant.
        plan = engine._FROBOSE_PLAN
        width, height = ((("f", 0),), ()), ((), (("f", 0),))
        assert plan.shared == (height, width, height, height, width)
        plain = plain_edges(plan)
        assert len(plain) == 11
        assert all(e[0] > 0 for e in plain)
        scaled = {(plan.rows[e[1]], plan.rows[e[4]]) for e in plan.edges
                  if e[0] > 0 and e not in plain}
        assert scaled == {("3", "1''"), ("3", "0")}

    def test_frobose_gauge(self):
        # Over rows 0, 1, 1'', 2, 3 of ranks 0, 1, 1, 2, 3:
        # kappa = (1, p e^q, p e^q, p^2 e^q, 2 p^3 e^q) lam^-rank and
        # nu = (1, e^-q, e^-q, e^-q, e^-2q) / lam
        mono = engine._monomial
        plan = engine._FROBOSE_PLAN
        assert plan.kappa == (
            engine._UNIT, mono({"p": 1, "e^-q": -1, "lam": -1}),
            mono({"p": 1, "e^-q": -1, "lam": -1}),
            mono({"p": 2, "e^-q": -1, "lam": -2}),
            mono({"2": 1, "p": 3, "e^-q": -1, "lam": -3}))
        assert plan.nu == (mono({"lam": -1}), mono({"e^-q": 1, "lam": -1}),
                           mono({"e^-q": 1, "lam": -1}),
                           mono({"e^-q": 1, "lam": -1}),
                           mono({"e^-q": 2, "lam": -1}))

    def test_two_neighbour_shares_a_term_in_row_zero_only(self):
        # 1 - e^{-qh} is common to the two loops of row 0 alone; it leaves
        # the step-one loop a plain add, and the gauge is trivial but for
        # nu_0 = 1 / lam
        plan = engine._TWO_NEIGHBOUR_PLAN
        assert [any(terms) for terms in plan.shared] == [True] + [False] * 5
        assert [(e[0], e[1], e[4]) for e in plain_edges(plan)] == [(1, 0, 0)]
        assert plan.nu[0] == engine._monomial({"lam": -1})
        assert set(plan.kappa + plan.nu[1:]) == {engine._UNIT}

    @pytest.mark.parametrize("plan, table", [
        (engine._FROBOSE_PLAN, FROBOSE_TABLE),
        (engine._TWO_NEIGHBOUR_PLAN, TWO_NEIGHBOUR_TABLE)],
        ids=["frobose", "two_neighbour"])
    def test_blocks_are_strongly_lumpable(self, plan, table):
        # From the rules alone: every state of a block moves into each
        # block at each (dw, dh) with its first state's probability.
        block_of = {s: block[0] for block in plan.blocks for s in block}

        def flows(s, w, h, mp):
            out = {}
            for r in table:
                if r.src == s:
                    key = (block_of[r.dst], r.dw, r.dh)
                    out[key] = out.get(key, 0.0) + r.linear_prob(w, h, mp)
            return out

        rng = np.random.default_rng(11)
        for _ in range(25):
            w, h = (int(x) for x in rng.integers(1, 200, size=2))
            mp = ModelParams(float(rng.uniform(0.01, 0.99)))
            for block in plan.blocks:
                want = flows(block[0], w, h, mp)
                for s in block[1:]:
                    got = flows(s, w, h, mp)
                    assert got.keys() == want.keys(), (s, w, h)
                    for key, prob in want.items():
                        assert got[key] == pytest.approx(prob, rel=1e-14,
                                                         abs=0.0), (s, key)


class TestEnginePlan:
    @pytest.mark.parametrize("p", [0.1, 0.5, 2.0 ** -9, 1e-60])
    @pytest.mark.parametrize("plan", [engine._FROBOSE_PLAN,
                                      engine._TWO_NEIGHBOUR_PLAN])
    def test_shared_factors_equal_linear_prob(self, plan, p):
        # A level's rows are filled as X_s = kappa_s F_s and stored as
        # G_s = conv_s X_s, conv_s = nu_s f_s, where F is the mass over
        # lam^(phi - 2).  So a moving edge's factor times conv_s, or a
        # rank-up edge's factor alone, times kappa_s / kappa_t, and the
        # hit fold's flow, the same factor times 1 / kappa_t, times
        # conv_s kappa_s, are each the summed probability of the edge's
        # member rules at source (w, h), over lam^dphi.  At p = 1e-60 the
        # lam-free constants leave their range and the Frobose levels are
        # stored over lam = p.
        L = 40
        mp = ModelParams(p)
        N = L + 2 * engine._PAD + 4
        at_p = plan.base_is_p(mp)
        assert at_p == (p == 1e-60 and plan is engine._FROBOSE_PLAN)
        consts, vectors = engine._factor_vectors(plan, mp, N, at_p)
        unkappa = consts[len(plan.factors):-1]
        lam = p if at_p else 1.0
        bases = {base: engine._base(base, mp) for base in plan.bases}
        kappa = [engine._value(k, dict(bases, lam=lam)) for k in plan.kappa]
        W, H = np.meshgrid(np.arange(1, L), np.arange(1, L), indexing="ij")

        def at(fi):
            a, b = plan.layout[fi]
            out = np.full(W.shape, consts[fi] if a is b is None else 1.0)
            if a is not None:
                out = out * vectors[a][W + engine._PAD]
            if b is not None:
                out = out * vectors[b][N - 1 - (H + engine._PAD)]
            return out

        conv = {s: at(fi) for s, fi in plan.convert}
        for dphi, s, _, _, t, fi, members in plan.edges:
            want = np.vectorize(lambda w, h: math.fsum(
                r.linear_prob(int(w), int(h), mp) for r in members))(W, H)
            source = conv.get(s, 1.0) if dphi else 1.0
            np.testing.assert_allclose(
                at(fi) * source * (kappa[s] / kappa[t]) * lam ** dphi,
                want, rtol=1e-14, atol=0.0, err_msg=repr(members))
            if dphi:
                np.testing.assert_allclose(
                    at(fi) * unkappa[t] * conv.get(s, 1.0) * kappa[s]
                    * lam ** dphi,
                    want, rtol=1e-14, atol=0.0, err_msg=repr(members))

    def test_refuses_phi_raising_rule_into_unstored_row(self):
        # The hit fold reads only edges into stored rows, so a rule that
        # raises phi into a state no moving rule leaves would carry mass
        # past L that no flow counts.
        table = (
            TransitionRule("0", "1", 0, 0, 1, 0, f_terms=(("b", 0),)),
            TransitionRule("1", "1", 0, 0, 0, 0))
        with pytest.raises(ValueError, match="no moving rule leaves"):
            engine._Plan(table, ("0", "1"))

    def test_refuses_step_past_the_padding(self):
        # A level's block reaches up to _BLOCK - 1 columns past phi, where
        # a height vector read dh heights up must still lie inside it.
        step = engine._PAD - engine._BLOCK + 3
        with pytest.raises(ValueError, match="past the level padding"):
            engine._Plan((TransitionRule("0", "0", 0, 0, 0, step),), ("0",))
        engine._Plan((TransitionRule("0", "0", 0, 0, 0, step - 1),), ("0",))

    def test_calls_share_no_state(self):
        # The plans are built once, at import; a call must leave nothing
        # behind that changes a later call, in whatever order they come.
        keys = [(fn, p, L, conv)
                for p in (0.1, 0.5, 0.9) for L in (2, 3, 7, 12, 400)
                for conv in ("exact", "at-least")
                for fn in (compute_pi, compute_two_neighbour_lower_bound)]

        def run(order):
            return {key: key[0](ChainParams.from_p(
                key[1], threshold=key[2], convention=key[3])).log_hit_prob
                for key in order}

        shuffled = [keys[i] for i in np.random.default_rng(5).permutation(
            len(keys))]
        first, second = run(keys), run(shuffled)
        assert all(first[key] == second[key] for key in keys)

    @pytest.mark.parametrize("fn", [compute_pi,
                                    compute_two_neighbour_lower_bound])
    def test_phase_timings(self, fn):
        for L in (2, 3, 12, 300):
            r = fn(ChainParams.from_p(0.3, threshold=L))
            phases = (r.prepare_seconds, r.sweep_seconds, r.hits_seconds)
            assert min(phases) >= 0.0
            assert sum(phases) <= r.wall_time_seconds
            assert r.levels == L - 2


def swept_engine(plan, p, L):
    """An engine for plan at p and threshold L (the default when None),
    after its sweep."""
    cp = ChainParams.from_p(p, threshold=L)
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        eng = engine._Engine(plan, cp.model, cp.threshold,
                             engine.DEFAULT_MEMORY_CAP_BYTES)
        eng.sweep()
    return eng


def reference_sweep(eng):
    """Fill levels 2 .. L - 1 of eng's ring one edge at a time, over
    target widths [lo, hi) alone: per target row in stage order, per edge,
    its source row times its width vector, height vector or constant,
    looked up through the plan's layout, written into the row or added to
    it, then the conversions; the ring's rescales and window as in
    _Engine.sweep."""
    plan, L, N, window, pad = (eng.plan, eng.L, eng.N, eng.plan.window,
                               engine._PAD)
    levels, los, his = eng._levels, eng._los, eng._his
    vectors, consts = eng._vectors, eng._consts.tolist()
    rows = [list(level) for level in levels]
    convert_a, convert_b = ([(t, vectors[plan.layout[fi][dim]])
                             for t, fi in plan.convert
                             if plan.layout[fi][dim] is not None]
                            for dim in (0, 1))
    tmp = np.empty(N)
    for phi in range(2, L):
        slot = phi % window
        cur = levels[slot]
        old_lo, old_hi = los[slot], his[slot]
        los[slot], his[slot] = L, 0
        lo, hi = min(los), min(phi, max(his) + plan.max_dw)
        if old_lo < lo:
            cur[:, old_lo + pad:lo + pad] = 0.0
        if hi < old_hi:
            cur[:, hi + pad:old_hi + pad] = 0.0
        if phi == 2:
            cur[plan.seed_row, 1 + pad] = 1.0
        into = plan.stages[min(phi - 2, plan.max_dphi)]
        src = [rows[(phi - d) % window] for d in range(window)]
        cnt = hi - lo
        la, lb = lo + pad, N - 1 - pad - phi + lo
        for t, pair, order in into:
            row = out = rows[slot][t][la:la + cnt]
            if pair:
                (d0, s0, w0), (d1, s1, w1) = pair
                np.add(src[d0][s0][la - w0:la - w0 + cnt],
                       src[d1][s1][la - w1:la - w1 + cnt], row)
                out = tmp[:cnt]
            for dphi, s, dw, dh, _, fi, _ in (plan.edges[i] for i in order):
                s0, r0 = la - dw, lb + dh
                vals = src[dphi][s][s0:s0 + cnt]
                a, b = plan.layout[fi]
                if a is not None:
                    np.multiply(vals, vectors[a][s0:s0 + cnt], out)
                    if b is not None:
                        np.multiply(out, vectors[b][r0:r0 + cnt], out)
                elif b is not None:
                    np.multiply(vals, vectors[b][r0:r0 + cnt], out)
                elif consts[fi] != 1.0:
                    np.multiply(vals, consts[fi], out)
                elif out is not row:
                    np.add(row, vals, row)
                    continue
                else:
                    np.copyto(row, vals)
                if out is not row:
                    np.add(row, out, row)
                out = tmp[:cnt]
        for t, a in convert_a:
            cur[t][la:la + cnt] *= a[la:la + cnt]
        for t, b in convert_b:
            cur[t][la:la + cnt] *= b[lb:lb + cnt]
        eng.cells += cnt
        live = cur[:, la:la + cnt]
        colmax = live.max(axis=0)
        top = colmax.max()
        if top > 1.0 or 0.0 < top < engine._BAND_LOW:
            inv = 1.0 / top
            live *= inv
            colmax *= inv
            eng.scale -= math.log(inv)
            for d in range(1, window - 1):
                s = (phi - d) % window
                levels[s][:, los[s] + pad:his[s] + pad] *= inv
        a, b = 0, cnt
        while a < b and colmax[a] < engine._TINY:
            a += 1
        while b > a and colmax[b - 1] < engine._TINY:
            b -= 1
        live[:, :a] = live[:, b:] = 0.0
        los[slot], his[slot] = lo + a, lo + b


def reference_fold(eng):
    """(log P(exact hit), log P(at-least hit)) folded one edge at a time:
    per source level below L and edge of the plan that crosses L, the
    flow is the factor's constant times the pairwise sum of its source
    row over the live widths, or, where residual terms are left, the
    math.fsum of their products with it, each factor looked up through
    the plan's layout; times 1 / kappa_t and lam^(T - L), summed by
    math.fsum."""
    L, N, pad = eng.L, eng.N, engine._PAD
    vectors, consts = eng._vectors, eng._consts.tolist()
    on_L, past_L = [], []
    for sphi in range(max(2, L - eng.plan.max_dphi), L):
        slot = sphi % eng.plan.window
        lo, hi = eng._los[slot], eng._his[slot]
        la, lb, cnt = lo + pad, N - 1 - pad - sphi + lo, hi - lo
        for dphi, s, _, _, t, fi, _ in eng.plan.edges:
            if sphi + dphi < L:
                continue
            a, b = eng.plan.layout[fi]
            vals = eng._levels[slot][s][la:la + cnt]
            if a is None and b is None:
                flow = float(np.add.reduce(vals)) * consts[fi]
            else:
                if a is not None:
                    vals = vals * vectors[a][la:la + cnt]
                if b is not None:
                    vals = vals * vectors[b][lb:lb + cnt]
                flow = math.fsum(vals)
            (on_L if sphi + dphi == L else past_L).append(
                flow * eng._consts[len(eng.plan.factors) + t]
                * eng.lam ** (sphi + dphi - L))
    scale = eng.scale + (L - 2) * math.log(eng.lam)
    return tuple(math.log(math.fsum(flows)) + scale
                 for flows in (on_L, on_L + past_L))


class TestSweep:
    @pytest.mark.parametrize("p, L", [
        (p, L) for p in (0.1, 0.5, 0.9, 1e-60) for L in (3, 7, 12, 40, 200)]
        + [(0.5, 2000)])
    @pytest.mark.parametrize("plan", [engine._FROBOSE_PLAN,
                                      engine._TWO_NEIGHBOUR_PLAN],
                             ids=["frobose", "two_neighbour"])
    def test_programs_equal_the_sweep_one_edge_at_a_time(self, plan, p, L):
        # The programs run the same calls in the same order over a block
        # rounded out past [lo, hi), whose extra columns compute zeros; the
        # ring (every slot, at every width), its ranges, its scale and the
        # cells swept are the same bits.  The points take in the openings
        # (L = 3, 7), lam = p (1e-60), rescales and block moves.
        got = swept_engine(plan, p, L)
        cp = ChainParams.from_p(p, threshold=L)
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            want = engine._Engine(plan, cp.model, cp.threshold,
                                  engine.DEFAULT_MEMORY_CAP_BYTES)
            reference_sweep(want)
        assert got._levels.tobytes() == want._levels.tobytes()
        assert (got._los, got._his) == (want._los, want._his)
        assert got.scale == want.scale and got.cells == want.cells

    def test_full_stage_program_lengths(self):
        # A Frobose level past the openings takes 23 ufunc calls (18 for
        # the edges, 5 conversions), a two-neighbour level 82 (77 and 1);
        # a program per ring phase
        for plan, calls, converts in ((engine._FROBOSE_PLAN, 23, 5),
                                      (engine._TWO_NEIGHBOUR_PLAN, 82, 1)):
            assert [len(prog) for prog in plan.programs] == (
                [calls] * (plan.max_dphi + 1))
            assert len(plan.convert) == converts


class TestHitFold:
    @pytest.mark.parametrize("L", [3, 12, 40])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1e-60])
    @pytest.mark.parametrize("plan", [engine._FROBOSE_PLAN,
                                      engine._TWO_NEIGHBOUR_PLAN],
                             ids=["frobose", "two_neighbour"])
    def test_equals_the_fold_one_edge_at_a_time(self, plan, p, L):
        # Both conventions.  The Frobose flows are the same products of
        # the same row sums, so math.fsum gives the same bits; the
        # two-neighbour flows with residual terms are reduced in another
        # order.
        eng = swept_engine(plan, p, L)
        got, want = eng.hits(), reference_fold(eng)
        if plan is engine._FROBOSE_PLAN:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("plan, p, L", [
        (engine._FROBOSE_PLAN, 0.5, 2000),
        (engine._TWO_NEIGHBOUR_PLAN, 0.5, 2000),
        (engine._FROBOSE_PLAN, 2.0 ** -8, None)],
        ids=["frobose-long", "two_neighbour-long", "frobose-k8"])
    def test_ring_is_zero_outside_each_slot_range(self, plan, p, L):
        # Entries below the smallest normal double are kept, and the
        # columns a level's window drops are zeroed; a fill reads its
        # sources beyond their ranges, so they must hold zeros there.
        eng = swept_engine(plan, p, L)
        for level, lo, hi in zip(eng._levels, eng._los, eng._his):
            outside = np.ones(eng.N, dtype=bool)
            outside[lo + engine._PAD:hi + engine._PAD] = False
            assert not level[:, outside].any(), (lo, hi)
