import math

import numpy as np
import pytest

from bpdp import lattice_sim
from bpdp.chain import (FROBOSE_TABLE, TWO_NEIGHBOUR_TABLE, ChainParams,
                        frobose_transitions, sample_trajectory)
from bpdp.lattice_sim import (EXACT_ENUMERATION_MAX_CELLS, FramedRectangle,
                              Rectangle, closure_frobose,
                              closure_two_neighbour, crossing, event_holds,
                              exact_event_prob, explore, internally_filled,
                              local_closure_frobose,
                              local_closure_two_neighbour,
                              locally_internally_filled, mc_estimate,
                              no_horizontal_gaps, no_vertical_gaps, occupied,
                              rectangles_process_closure, traversable)
from bpdp.special_functions import ModelParams, f, g


def random_config(rng, box, n):
    return {(int(x), int(y))
            for x, y in zip(rng.integers(box.a, box.c, n),
                            rng.integers(box.b, box.d, n))}


class TestRectangle:
    def test_accessors(self):
        r = Rectangle(1, 2, 4, 7)
        assert (r.width, r.height, r.phi, r.sh, r.lng) == (3, 5, 8, 3, 5)
        assert (1, 2) in r and (4, 2) not in r
        assert len(r.cells()) == 15

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Rectangle(0, 0, 0, 3)


class TestClosures:
    def test_two_neighbour_diagonal_pair(self):
        assert closure_two_neighbour({(0, 0), (1, 1)}) == \
            {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_frobose_diagonal_pair_stable(self):
        assert closure_frobose({(0, 0), (1, 1)}) == {(0, 0), (1, 1)}

    def test_frobose_l_shape(self):
        assert closure_frobose({(0, 0), (1, 0), (0, 1)}) == \
            {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_empty(self):
        assert closure_two_neighbour(set()) == set()
        assert closure_frobose(set()) == set()

    @pytest.mark.parametrize("model,closure", [
        ("two-neighbour", closure_two_neighbour),
        ("frobose", closure_frobose),
    ])
    def test_rectangles_process_matches_fixpoint(self, model, closure):
        rng = np.random.default_rng(101)
        box = Rectangle(0, 0, 11, 11)
        for _ in range(300):
            A = random_config(rng, box, int(rng.integers(0, 18)))
            assert rectangles_process_closure(A, model) == closure(A, box.expand(2))


class TestLocalClosures:
    def test_isolated_germ(self):
        assert local_closure_frobose({(0, 0)}, (0, 0)) == {(0, 0)}
        assert local_closure_two_neighbour({(5, 5)}, (5, 5)) == {(5, 5)}

    def test_frobose_l_shape_from_germ(self):
        got = local_closure_frobose({(0, 0), (1, 0), (0, 1)}, (0, 0))
        assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_rejects_missing_germ(self):
        with pytest.raises(ValueError):
            local_closure_frobose({(0, 0)}, (3, 3))

    def test_contained_in_closure(self):
        rng = np.random.default_rng(11)
        box = Rectangle(0, 0, 9, 9)
        for _ in range(1000):
            A = random_config(rng, box, int(rng.integers(1, 14)))
            germ = min(A)
            assert local_closure_frobose(A, germ) <= closure_frobose(A)
            assert local_closure_two_neighbour(A, germ) <= closure_two_neighbour(A)


class TestEvents:
    def test_gaps_full_configuration(self):
        rect = Rectangle(0, 0, 2, 3)
        assert no_vertical_gaps(rect, rect.cells())
        assert no_horizontal_gaps(rect, rect.cells())

    def test_frobose_filling_needs_enough_sites(self):
        # |A| >= a+b-1 whenever the 2x2 square fills: check all 16 configs
        rect = Rectangle(0, 0, 2, 2)
        cells = sorted(rect.cells())
        for bits in range(16):
            A = {cells[i] for i in range(4) if bits >> i & 1}
            if internally_filled(rect, A, "frobose"):
                assert len(A) >= 3

    def test_filling_implies_traversability(self):
        rect = Rectangle(0, 0, 3, 3)
        cells = sorted(rect.cells())
        for bits in range(1 << 9):
            A = {cells[i] for i in range(9) if bits >> i & 1}
            if internally_filled(rect, A, "two-neighbour"):
                for d in ("east", "west", "north", "south"):
                    assert traversable(rect, A, d)

    def test_traversability_definition(self):
        rect = Rectangle(0, 0, 4, 2)
        # columns 0 and 3 occupied: window {1,2} empty -> not traversable
        assert not traversable(rect, {(0, 0), (3, 1)}, "east")
        # columns 0, 2, 3: all windows hit and last column occupied
        assert traversable(rect, {(0, 0), (2, 1), (3, 0)}, "east")
        # last column empty
        assert not traversable(rect, {(0, 0), (1, 1), (2, 0)}, "east")

    def test_event_dispatch(self):
        rect = Rectangle(0, 0, 2, 2)
        assert event_holds("O", rect, {(0, 0)})
        assert not event_holds("O", rect, {(5, 5)})
        assert event_holds("IF", rect, {(0, 0), (1, 0), (0, 1)})
        with pytest.raises(ValueError):
            event_holds("nope", rect, set())

    def test_stacking_crossings(self):
        rng = np.random.default_rng(12)
        S = Rectangle(0, 0, 2, 2)
        for _ in range(300):
            R = Rectangle(0, 0, int(rng.integers(3, 6)), int(rng.integers(3, 6)))
            A = random_config(rng, R, int(rng.integers(2, 12)))
            for model in ("two-neighbour", "frobose"):
                if internally_filled(S, A, model) and crossing(S, R, A, model):
                    assert internally_filled(R, A | S.cells(), model)


class TestExtremalAndAL:
    def test_extremal_bound_on_positive_samples(self):
        rng = np.random.default_rng(13)
        for _ in range(800):
            w, h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            rect = Rectangle(0, 0, w, h)
            A = random_config(rng, rect, int(rng.integers(1, w * h + 1)))
            if internally_filled(rect, A, "two-neighbour"):
                assert len(A) >= math.ceil((w + h) / 2)
            if internally_filled(rect, A, "frobose"):
                assert len(A) >= w + h - 1

    def test_al_lemma_on_samples(self):
        # every filled rectangle contains a filled sub-rectangle with
        # longest side in [l, 2l], for every valid l
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(400):
            w, h = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            rect = Rectangle(0, 0, w, h)
            A = random_config(rng, rect, int(rng.integers(4, w * h)))
            if not internally_filled(rect, A, "two-neighbour"):
                continue
            checked += 1
            for l in range(1, max(w, h) + 1):
                found = False
                for a in range(w):
                    for c in range(a + 1, w + 1):
                        for b in range(h):
                            for d in range(b + 1, h + 1):
                                sub = Rectangle(a, b, c, d)
                                if not (l <= sub.lng <= 2 * l):
                                    continue
                                if internally_filled(sub, A, "two-neighbour"):
                                    found = True
                                    break
                            if found:
                                break
                        if found:
                            break
                    if found:
                        break
                assert found, (A, l)
        assert checked > 10


class TestTwoNeighbourFrames:
    def test_thickness_two_with_corners(self):
        r = Rectangle(0, 0, 3, 2)
        sizes = {s: len(FramedRectangle(r, s).frame_cells("two-neighbour"))
                 for s in ("0", "1", "1''", "2", "2''", "3", "4")}
        assert sizes == {"0": 0, "1": 4, "1''": 6, "2": 11, "2''": 8,
                         "3": 16, "4": 24}

    def test_frobose_rejects_2pp(self):
        with pytest.raises(ValueError):
            FramedRectangle(Rectangle(0, 0, 2, 2), "2''").frame_cells()


class TestRingCrossing:
    """explore's crossing rule, read off the ring's lines and corners,
    against the set-based crossing."""

    def test_every_grown_side_set_and_ring_subset(self):
        rules = {(r.alpha, r.beta, r.gamma, r.delta): r
                 for r in FROBOSE_TABLE if r.dphi}
        assert len(rules) == 13
        for w, h in ((1, 1), (2, 1), (1, 2), (2, 2)):
            small = Rectangle(0, 0, w, h)
            # the key's bits: lines r, u, l, d, then corners ru, ul, ld, dr
            parts = ([{(w, y) for y in range(h)}, {(x, h) for x in range(w)},
                      {(-1, y) for y in range(h)}, {(x, -1) for x in range(w)}]
                     + [{s} for s in ((w, h), (-1, h), (-1, -1), (w, -1))])
            for grow, rule in rules.items():
                big = small.grow(*grow)
                ring = sorted(big.cells() - small.cells())
                crosses = lattice_sim._ring_crossings(rule)
                for bits in range(1 << len(ring)):
                    A = {s for i, s in enumerate(ring) if bits >> i & 1}
                    key = sum(1 << i for i, part in enumerate(parts)
                              if part & A)
                    assert (crosses >> key & 1
                            == crossing(small, big, A, "frobose")), (
                        w, h, grow, sorted(A))

    def test_refuses_growth_by_two(self):
        # the ring rule holds only for the one-cell growth of every
        # Frobose row, which the table is checked for at import
        rule = next(r for r in TWO_NEIGHBOUR_TABLE if r.gamma == 2)
        with pytest.raises(ValueError, match="more than one cell"):
            lattice_sim._ring_crossings(rule)


class TestExplore:
    def test_empty_configuration(self):
        traj = explore(set(), Rectangle(0, 0, 1, 1), Rectangle(-4, -4, 5, 5))
        assert [fr.projected() for fr in traj] == [
            (1, 1, "0"), (1, 1, "1"), (1, 1, "2"), (1, 1, "3"), (1, 1, "4")]

    def test_final_rectangle_is_local_closure(self):
        rng = np.random.default_rng(15)
        box = Rectangle(-14, -14, 15, 15)
        checked = 0
        for _ in range(1000):
            A = random_config(rng, Rectangle(-10, -10, 11, 11),
                              int(rng.integers(0, 45)))
            A.add((0, 0))
            traj = explore(A, Rectangle(0, 0, 1, 1), box)
            if traj[-1].state != "4":
                continue  # censored at the box boundary
            checked += 1
            assert traj[-1].rect.cells() == local_closure_frobose(A, (0, 0), box)
        assert checked > 800

    def test_explored_cells_monotone(self):
        rng = np.random.default_rng(16)
        box = Rectangle(-10, -10, 11, 11)
        for _ in range(100):
            A = random_config(rng, Rectangle(-6, -6, 7, 7), 20)
            A.add((0, 0))
            traj = explore(A, Rectangle(0, 0, 1, 1), box)
            for prev, nxt in zip(traj, traj[1:]):
                assert prev.explored_cells() < nxt.explored_cells()

    def test_transition_frequencies_match_table(self):
        # state 0 on a 1x3 rectangle: creation probability e^{-3q}
        p = 0.3
        q = ModelParams(p).q
        rng = np.random.default_rng(17)
        box = Rectangle(-3, -3, 6, 8)
        n = 20000
        creations = 0
        seed_cells = Rectangle(0, 0, 1, 3).cells()
        all_cells = sorted(box.cells() - seed_cells)
        for _ in range(n):
            mask = rng.random(len(all_cells)) < p
            A = {c for c, m in zip(all_cells, mask) if m}
            traj = explore(A | seed_cells, Rectangle(0, 0, 1, 3), box)
            creations += traj[1].state == "1"
        want = math.exp(-3 * q)
        se = math.sqrt(want * (1 - want) / n)
        assert abs(creations / n - want) <= 3.5 * se


def replay_with_sets(infected, traj, box, max_phi):
    """Check every step of an explore trajectory with the set-based API.

    The row taken must be the only one out of the current state whose new
    frame holds no unrevealed infection and whose crossing holds on the
    unrevealed infections; the trajectory must stop exactly where a
    stopping rule first applies.
    """
    def stops(fr):
        return (fr.state == "4"
                or (max_phi is not None and fr.rect.phi >= max_phi)
                or not box.contains_rect(fr.rect.expand(2)))

    revealed = set()
    for cur, nxt in zip(traj, traj[1:]):
        assert not stops(cur)
        revealed |= cur.explored_cells()
        hidden = infected - revealed
        holds = []
        for rule in frobose_transitions(cur.state):
            new = FramedRectangle(cur.rect.grow(rule.alpha, rule.beta,
                                                rule.gamma, rule.delta),
                                  rule.dst)
            if (not new.frame_cells() & hidden
                    and crossing(cur.rect, new.rect, hidden, "frobose")):
                holds.append(new)
        assert holds == [nxt], (cur, holds, nxt)
    assert stops(traj[-1])


class TestExploreAgainstSets:
    """The bitboard explore against the set-based crossing and frames."""

    def test_capped_bernoulli_boxes(self):
        # the lattice-bridge inputs: Bernoulli(0.3) on a 25 x 25 box, cap 10
        rng = np.random.default_rng(np.random.Philox(31))
        box = Rectangle(-12, -12, 13, 13)
        cells = sorted(box.cells() - {(0, 0)})
        for _ in range(1000):
            A = {c for c, m in zip(cells, rng.random(len(cells)) < 0.3) if m}
            A.add((0, 0))
            replay_with_sets(A, explore(A, Rectangle(0, 0, 1, 1), box, 10),
                             box, 10)

    def test_uncapped_sparse_configurations(self):
        # the configurations of TestExplore, run to state 4 or the box
        rng = np.random.default_rng(np.random.Philox(32))
        box = Rectangle(-14, -14, 15, 15)
        finished = 0
        for _ in range(1000):
            A = random_config(rng, Rectangle(-10, -10, 11, 11),
                              int(rng.integers(0, 45)))
            A.add((0, 0))
            traj = explore(A, Rectangle(0, 0, 1, 1), box)
            replay_with_sets(A, traj, box, None)
            finished += traj[-1].state == "4"
        assert finished > 800

    def test_numpy_coordinates_and_sites_outside_box(self):
        # membership is tested with Python-int coordinates, so numpy-int
        # sites give the same trajectory, and sites beyond the box (where
        # a numpy shift would overflow) are never read
        rng = np.random.default_rng(np.random.Philox(33))
        box = Rectangle(-12, -12, 13, 13)
        cells = sorted(box.cells() - {(0, 0)})
        arr = np.array(cells)
        outside = np.array([(600, 0), (0, 600), (-600, -3), (13, 0),
                            (-13, 5), (2, 13), (40, 40)])
        assert not any(tuple(s) in box for s in outside.tolist())
        for cap in (10, None):
            for _ in range(200):
                mask = rng.random(len(cells)) < 0.3
                plain = {c for c, m in zip(cells, mask) if m} | {(0, 0)}
                wide = set(map(tuple, arr[mask])) | set(map(tuple, outside))
                wide.add((np.int64(0), np.int64(0)))
                assert isinstance(next(iter(wide))[0], np.integer)
                want = explore(plain, Rectangle(0, 0, 1, 1), box, cap)
                assert explore(wide, Rectangle(0, 0, 1, 1), box, cap) == want

    def test_each_site_looked_up_once(self):
        # the board is loaded over rect.expand(2) of each step's rectangle,
        # and a cell already loaded is never looked up again
        class Counting(set):
            def __contains__(self, site):
                looked.append(site)
                return super().__contains__(site)

        rng = np.random.default_rng(np.random.Philox(34))
        box = Rectangle(-12, -12, 13, 13)
        cells = sorted(box.cells() - {(0, 0)})
        for cap in (10, None):
            for _ in range(500):
                A = {c for c, m in zip(cells, rng.random(len(cells)) < 0.3)
                     if m}
                A.add((0, 0))
                looked = []
                traj = explore(Counting(A), Rectangle(0, 0, 1, 1), box, cap)
                assert len(set(looked)) == len(looked)
                assert set(looked) <= traj[-1].rect.expand(2).cells()
                # the last rectangle stops the walk before it loads
                assert set(looked) == traj[-2].rect.expand(2).cells()


class TestEstimators:
    def test_mc_occupied(self):
        params = ModelParams(0.5)
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        est = mc_estimate(lambda A: occupied(cells, A), cells, params,
                          20000, seed=3)
        want = 1 - 0.5 ** 4
        assert abs(est["p_hat"] - want) <= 3 * math.sqrt(want * (1 - want) / 20000)

    def test_mc_vertical_gaps_formula(self):
        params = ModelParams(0.2)
        rect = Rectangle(0, 0, 3, 4)
        est = mc_estimate(lambda A: no_vertical_gaps(rect, A), rect.cells(),
                          params, 20000, seed=4)
        want = math.exp(-3 * float(f(4 * params.q)))
        assert abs(est["p_hat"] - want) <= 3 * est["std_err"] + 3e-3

    def test_mc_traversability_bracket(self):
        params = ModelParams(0.2)
        rect = Rectangle(0, 0, 4, 3)
        est = mc_estimate(lambda A: traversable(rect, A, "east"), rect.cells(),
                          params, 20000, seed=5)
        gq = float(g(3 * params.q))
        upper = math.exp(-4 * gq)
        lower = math.exp(-3 * gq - float(f(3 * params.q)))
        slack = 3 * est["std_err"]
        assert lower - slack <= est["p_hat"] <= upper + slack

    def test_exact_event_prob(self):
        params = ModelParams(0.5)
        cells = [(0, 0), (1, 0), (2, 0)]
        got = exact_event_prob(lambda A: occupied(cells, A), cells, params)
        assert got == pytest.approx(7.0 / 8.0, abs=1e-15)

    def test_exact_matches_mc(self):
        params = ModelParams(0.4)
        rect = Rectangle(0, 0, 2, 2)
        exact = exact_event_prob(
            lambda A: internally_filled(rect, A, "frobose"),
            rect.cells(), params)
        est = mc_estimate(lambda A: internally_filled(rect, A, "frobose"),
                          rect.cells(), params, 20000, seed=6)
        assert abs(est["p_hat"] - exact) <= 4 * est["std_err"] + 1e-3

    def test_enumeration_bound(self):
        params = ModelParams(0.5)
        cells = [(i, 0) for i in range(EXACT_ENUMERATION_MAX_CELLS + 1)]
        with pytest.raises(ValueError):
            exact_event_prob(lambda A: True, cells, params)

    def test_mc_rejects_bad_n(self):
        with pytest.raises(ValueError):
            mc_estimate(lambda A: True, [(0, 0)], ModelParams(0.5), 0, seed=0)


class TestChainLatticeBridge:
    def test_exploration_matches_chain_product(self):
        # the same quantity from the transition table, summing over all
        # position-resolved trajectories ending at (R, state 4)
        from bpdp.chain import FROBOSE_TABLE
        params = ModelParams(0.2)
        S = Rectangle(0, 0, 1, 1)
        R = Rectangle(0, 0, 2, 2)

        def reach(rect, state):
            if state == "4":
                return 1.0 if rect == R else 0.0
            if not R.contains_rect(rect):
                return 0.0
            total = 0.0
            for rule in FROBOSE_TABLE:
                if rule.src != state or (rule.dst == state and rule.dphi == 0):
                    continue
                nxt = rect.grow(rule.alpha, rule.beta, rule.gamma, rule.delta)
                if not R.contains_rect(nxt) and rule.dphi > 0:
                    continue
                total += rule.linear_prob(rect.width, rect.height, params) * \
                    reach(nxt, rule.dst)
            return total

        box = R.expand(2)
        frame4 = FramedRectangle(R, "4").frame_cells()
        region = (R.cells() | frame4) - S.cells()

        def ends_at_R(A):
            traj = explore(A | S.cells(), S, box)
            return traj[-1].state == "4" and traj[-1].rect == R

        lhs = exact_event_prob(ends_at_R, region, params)
        assert lhs == pytest.approx(reach(S, "0"), abs=1e-12)
