import math

import numpy as np
import pytest

from bpdp.chain import (BRUTE_FORCE_MAX_L, ChainParams, FRAME_BUFFERS,
                        FROBOSE_STATES, FROBOSE_TABLE, RANK, ResourceCapError,
                        TWO_NEIGHBOUR_STATES, TWO_NEIGHBOUR_TABLE,
                        brute_force_hit_prob, compute_pi,
                        compute_two_neighbour_lower_bound, default_threshold,
                        frobose_transitions, sample_trajectory,
                        two_neighbour_transitions)
from bpdp.chain import engine
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

    @pytest.mark.parametrize("p, L", [(1e-200, 6), (1e-300, 6), (1e-310, 4)])
    def test_overflowing_levels_raise(self, p, L):
        # every rule has a positive probability, so the hit probability is
        # never 0: levels that span more than a double holds are an error,
        # not a log_hit_prob of -inf
        with pytest.raises(ArithmeticError, match=f"p={p!r}, L={L}"):
            compute_pi(ChainParams.from_p(p, threshold=L))

    def test_tiny_p_within_range_is_finite(self):
        for p, L in ((1e-100, 12), (1e-300, 4)):
            r = compute_pi(ChainParams.from_p(p, threshold=L))
            assert math.isfinite(r.log_hit_prob) and r.log_hit_prob < -1000

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
# smallest normal double after their fill and are flushed to zero (46% at
# p = 0.5, L = 2000, 51% at p = 0.9, L = 800).  The values are those of the log-domain sweep,
# which flushes nothing.  They are near 0, so the bound is 1e-12 absolute.
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


# Regression values of log_hit_prob at tiny p, where the levels span most
# of the double range.  The values are those of a 50-digit (mpmath)
# enumeration of the table's trajectories; the bound is 1e-12 relative.
PINNED_TINY_P_LOG_HIT = [
    (1e-50, 5, -340.82341575763901634),
    (1e-50, 12, -1131.999533069664023),
    (1e-100, 5, -686.21117970674586891),
    (1e-100, 12, -2283.2920795666868648),
    (1e-110, 5, -755.28873249656723933),
    (1e-150, 5, -1031.5989436558527216),
]


@pytest.mark.parametrize("p,L,want", PINNED_TINY_P_LOG_HIT)
def test_pinned_tiny_p(p, L, want):
    r = compute_pi(ChainParams.from_p(p, threshold=L))
    assert r.log_hit_prob == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cells_swept():
    # Up to L = 12 nothing is flushed, so every level is filled over all its
    # widths; at p = 0.9, L = 800 the flushed tails leave 63% of the cells.
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


class TestTwoNeighbourLowerBound:
    def test_runs_and_is_labelled(self):
        r = compute_two_neighbour_lower_bound(ChainParams.from_p(0.2, threshold=20))
        assert r.model == "two-neighbour-lower-bound"
        assert r.log_hit_prob < 0.0


def plain_edges(plan):
    """Indices of the plan's lumped edges that its gauge makes plain adds."""
    gauge = plan.gauged
    return [i for i, fi in enumerate(gauge.into_factor)
            if fi is not None and gauge.factors[fi] == (engine._UNIT, (), ())]


class TestLumping:
    """The engine sweeps the coarsest strong lumping of each table."""

    def test_frobose_blocks(self):
        plan = engine._FROBOSE_PLAN
        assert plan.blocks == (("0",), ("1", "1'"), ("1''",), ("2", "2'"),
                               ("3",), ("4",))
        assert plan.rows == ("0", "1", "1''", "2", "3")
        assert sum(len(edges) for _, edges in plan.into) == 17
        assert len(plan.crossing) == 13

    def test_two_neighbour_is_not_lumped(self):
        # 1 and 1' loop with e^{-2q} and e^{-4q}
        plan = engine._TWO_NEIGHBOUR_PLAN
        assert plan.blocks == tuple((s,) for s in TWO_NEIGHBOUR_STATES)
        assert all(len(members) == 1 for members, *_ in plan.lumped)

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
        assert all(plan.lumped[i][1] > 0 for i in plain)
        scaled = {(plan.rows[e[2]], plan.rows[e[3]])
                  for i, e in enumerate(plan.lumped)
                  if e[1] > 0 and i not in plain}
        assert scaled == {("3", "1''"), ("3", "0")}

    def test_frobose_gauge(self):
        # Over rows 0, 1, 1'', 2, 3: kappa = (1, p e^q, p e^q, p^2 e^q,
        # 2 p^3 e^q) and nu = (1, e^-q, e^-q, e^-q, e^-2q)
        mono = engine._monomial
        gauge = engine._FROBOSE_PLAN.gauged
        assert gauge.kappa == (
            engine._UNIT, mono({"p": 1, "e^-q": -1}),
            mono({"p": 1, "e^-q": -1}), mono({"p": 2, "e^-q": -1}),
            mono({"2": 1, "p": 3, "e^-q": -1}))
        assert gauge.nu == (engine._UNIT, mono({"e^-q": 1}),
                            mono({"e^-q": 1}), mono({"e^-q": 1}),
                            mono({"e^-q": 2}))

    def test_two_neighbour_shares_a_term_in_row_zero_only(self):
        # 1 - e^{-qh} is common to the two loops of row 0 alone; it leaves
        # the step-one loop a plain add, and the gauge is trivial
        plan = engine._TWO_NEIGHBOUR_PLAN
        assert [any(terms) for terms in plan.shared] == [True] + [False] * 5
        assert [plan.lumped[i][1:4] for i in plain_edges(plan)] == [(1, 0, 0)]
        assert set(plan.gauged.kappa + plan.gauged.nu) == {engine._UNIT}

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
        # G_s = conv_s X_s, conv_s = nu_s f_s.  So a moving edge's factor
        # times conv_s, or a rank-up edge's factor alone, times
        # kappa_s / kappa_t, and a crossing edge's hit factor times
        # conv_s kappa_s, are each the summed probability of the lumped
        # edge's member rules at source (w, h).  At p = 1e-60 the gauged
        # constants leave their range and the plan's ungauged form is used.
        L = 40
        mp = ModelParams(p)
        N = L + 2 * engine._PAD + 4
        gauge = plan.gauge_for(mp)
        assert (gauge is plan.gauged) == (
            p > 1e-60 or plan is engine._TWO_NEIGHBOUR_PLAN)
        factors = engine._factor_vectors(gauge, mp, N)
        bases = {base: engine._base(base, mp) for base in gauge.bases}
        kappa = [engine._value(k, bases) for k in gauge.kappa]
        W, H = np.meshgrid(np.arange(1, L), np.arange(1, L), indexing="ij")

        def at(fi):
            w, a, b_rev = factors[fi]
            out = np.full(W.shape, 1.0 if w is None else w)
            if a is not None:
                out = out * a[W + engine._PAD]
            if b_rev is not None:
                out = out * b_rev[N - 1 - (H + engine._PAD)]
            return out

        conv = {s: at(fi) for s, fi in gauge.convert}
        for i, (members, dphi, s, t, *_) in enumerate(plan.lumped):
            want = np.vectorize(lambda w, h: math.fsum(
                r.linear_prob(int(w), int(h), mp) for r in members))(W, H)
            source = conv.get(s, 1.0) if dphi else 1.0
            if t is not None:
                np.testing.assert_allclose(
                    at(gauge.into_factor[i]) * source * (kappa[s] / kappa[t]),
                    want, rtol=1e-14, atol=0.0, err_msg=repr(members))
            if dphi:
                np.testing.assert_allclose(
                    at(gauge.hit_factor[i]) * conv.get(s, 1.0) * kappa[s],
                    want, rtol=1e-14, atol=0.0, err_msg=repr(members))

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
