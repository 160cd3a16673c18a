"""Computations made apart from the program under test, and the checks.

Nothing here calls into ``bpdp.chain.engine``.  The two references read
only the rule tables of ``bpdp.chain.rules``:

* ``sweep_log_hit_prob`` is a level sweep in plain linear arithmetic.
  Each level is stored divided by its largest entry, with the logarithm
  of that divisor kept beside it, so probabilities far below the smallest
  double stay representable.  It serves the ``ladder`` workload, where L
  reaches 6389 and no enumeration is feasible.
* ``enumerate_log_hit_prob`` sums the probability of every trajectory by
  recursion from the start state, with ``TransitionRule.linear_prob`` and
  ``math.fsum``.  Shared suffixes are memoised on (w, h, state), which
  changes the cost but not the sum.  It serves the ``oracle-grid``
  workload for both rule tables (``brute_force_hit_prob`` of the program
  knows only the Frobose table).

The ``check_*`` functions return a list of problems, empty when the
outputs pass.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from bpdp.chain.rules import RANK, TransitionRule
from bpdp.special_functions import ModelParams

NEG_INF = float("-inf")

# |log_pi - reference| allowed, relative to the reference.  The two
# kernels differ by about 1e-13 at k = 9; a fault of one part in 1e9
# must still be caught.
LADDER_REL_TOL = 1e-11
# |log P(hit) - enumeration| allowed in the log domain (criterion 2).
GRID_ABS_TOL = 1e-12
# Chance that a correct program fails one run's frequency check.
FREQUENCY_FAMILY_ALPHA = 1e-6
FREQUENCY_MIN_SE = 4.0


def _moving_rules(table: Sequence[TransitionRule]) -> List[TransitionRule]:
    # The absorbing self-loop of state 4 never moves the chain.
    return [r for r in table if not (r.src == r.dst and r.dphi == 0)]


def _factor_vectors(rule: TransitionRule, p: float, q: float, size: int):
    """Width part, height part and constant of a rule's probability.

    linear_prob(w, h) == const * a[w] * b[h] for 1 <= w, h < size.
    """
    n = np.arange(size, dtype=float)
    const = p ** rule.n_logp
    if rule.log4m3p:
        const *= 4.0 - 3.0 * p
    parts = {"a": np.ones(size), "b": np.ones(size)}
    for dim, shift in rule.f_terms:
        if dim is None:
            const *= -math.expm1(-q * shift)
        else:
            parts[dim] *= -np.expm1(-q * (n + shift))
    for dim, shift, coeff in rule.q_terms:
        if dim is None:
            const *= math.exp(-q * coeff * shift)
        else:
            parts[dim] *= np.exp(-q * coeff * (n + shift))
    return const, parts["a"], parts["b"]


def sweep_log_hit_prob(table: Sequence[TransitionRule], p: float, L: int,
                       convention: str) -> float:
    """log P(the chain from (1, 1, "0") hits semi-perimeter L).

    Same event as ``compute_pi``: ``exact`` counts jumps landing on L,
    ``at-least`` every jump to L or beyond.  Levels are swept in
    ascending semi-perimeter, and inside a level the frame states in
    ascending rank, so every source is final before it is read.
    """
    if L == 2:
        return 0.0
    q = -math.log1p(-p)
    rules = _moving_rules(table)
    states = sorted({r.src for r in rules} | {r.dst for r in rules},
                    key=lambda s: RANK[s])
    sidx = {s: i for i, s in enumerate(states)}
    maxd = max(r.dphi for r in rules)
    size = L + maxd + 2
    edges = []   # (rule, const * a, b) per moving rule
    for r in rules:
        if r.dphi == 0 and RANK[r.dst] <= RANK[r.src]:
            raise ValueError(f"creation {r.src}->{r.dst} does not raise rank")
        const, a, b = _factor_vectors(r, p, q, size)
        edges.append((r, const * a, b))
    into = {s: [e for e in edges if e[0].dst == s] for s in states}

    # levels[phi] = (log scale, array[state, w]) with w = 0..phi; the
    # stored values times exp(scale) are P(visit (w, phi - w, state)).
    levels: Dict[int, Tuple[float, np.ndarray]] = {}
    for phi in range(2, L):
        sources = [levels[s][0] for s in range(phi - maxd, phi) if s in levels]
        scale = max(sources) if sources else 0.0
        cur = np.zeros((len(states), phi + 1))
        if phi == 2:
            cur[sidx["0"], 1] = 1.0
        for s in states:
            row = cur[sidx[s]]
            for r, a, b in into[s]:
                sphi = phi - r.dphi
                if r.dphi == 0:
                    src, factor = cur, 1.0
                elif sphi in levels:
                    sscale, src = levels[sphi]
                    factor = math.exp(sscale - scale)
                else:
                    continue
                # target w in [lo, hi) <=> source width w - dw in [1, sphi)
                lo, hi = max(1, 1 + r.dw), min(phi, sphi + r.dw)
                if lo >= hi:
                    continue
                s0, s1 = lo - r.dw, hi - r.dw
                # source height sphi - sw runs down as sw runs up
                contrib = (src[sidx[r.src], s0:s1] * a[s0:s1]
                           * b[sphi - s1 + 1:sphi - s0 + 1][::-1])
                row[lo:hi] += contrib * factor if factor != 1.0 else contrib
        top = cur.max()
        if top > 0.0:
            cur /= top
            scale += math.log(top)
        levels[phi] = (scale, cur)
        levels.pop(phi - maxd, None)

    at_least = convention == "at-least"
    logs = []
    for sphi in range(max(2, L - maxd), L):
        if sphi not in levels:
            continue
        sscale, src = levels[sphi]
        terms = []
        for r, a, b in edges:
            t = sphi + r.dphi
            if r.dphi > 0 and (t == L or (at_least and t > L)):
                terms.extend((src[sidx[r.src], 1:sphi] * a[1:sphi]
                              * b[1:sphi][::-1]).tolist())
        total = math.fsum(terms)
        if total > 0.0:
            logs.append(math.log(total) + sscale)
    if not logs:
        return NEG_INF
    m = max(logs)
    return m + math.log(math.fsum(math.exp(x - m) for x in logs))


def enumerate_log_hit_prob(table: Sequence[TransitionRule], p: float, L: int,
                           convention: str) -> float:
    """log P(hit L) summed over all trajectories of the rule table."""
    if L == 2:
        return 0.0
    model = ModelParams(p)
    at_least = convention == "at-least"
    by_src: Dict[str, List[TransitionRule]] = {}
    for rule in _moving_rules(table):
        by_src.setdefault(rule.src, []).append(rule)
    memo: Dict[Tuple[int, int, str], float] = {}

    def hit_from(w: int, h: int, s: str) -> float:
        key = (w, h, s)
        if key not in memo:
            parts = []
            for rule in by_src.get(s, ()):
                prob = rule.linear_prob(w, h, model)
                t = w + h + rule.dphi
                if t < L:
                    parts.append(prob * hit_from(w + rule.dw, h + rule.dh,
                                                 rule.dst))
                elif at_least or t == L:
                    parts.append(prob)
            memo[key] = math.fsum(parts)
        return memo[key]

    prob = hit_from(1, 1, "0")
    return math.log(prob) if prob > 0.0 else NEG_INF


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def log_close(x: float, y: float, tol: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol


def check_ladder(log_pi: Mapping[int, float], reference_log_pi: Mapping[int, float],
                 brute_k2_log_hit: float, k2_log_hit: float) -> List[str]:
    """``log_pi`` by k against the sweep reference (k >= 3), against the
    brute-force oracle at k = 2, and strictly increasing in k."""
    problems = []
    for k, ref in sorted(reference_log_pi.items()):
        got = log_pi[k]
        if not abs(got - ref) <= LADDER_REL_TOL * abs(ref):
            problems.append(f"k={k}: log_pi {got!r} vs reference {ref!r}")
    if not log_close(k2_log_hit, brute_k2_log_hit, GRID_ABS_TOL):
        problems.append(f"k=2: log P(hit) {k2_log_hit!r} vs brute force "
                        f"{brute_k2_log_hit!r}")
    ks = sorted(log_pi)
    for k0, k1 in zip(ks, ks[1:]):
        if not log_pi[k1] > log_pi[k0]:
            problems.append(f"log_pi not increasing: k={k0} {log_pi[k0]!r}, "
                            f"k={k1} {log_pi[k1]!r}")
    return problems


def check_grid(values: Mapping[tuple, float],
               enumerated: Mapping[tuple, float]) -> List[str]:
    """``values[(model, p, L, convention)]`` is a log hit probability.

    Each must match enumeration, and the exact hit can be no likelier
    than the at-least hit at the same point.
    """
    problems = []
    for key, got in sorted(values.items()):
        ref = enumerated[key]
        if not log_close(got, ref, GRID_ABS_TOL):
            problems.append(f"{key}: {got!r} vs enumeration {ref!r}")
        model, p, L, conv = key
        if conv == "exact":
            atl = values.get((model, p, L, "at-least"))
            if atl is not None and got > atl + GRID_ABS_TOL:
                problems.append(f"{key}: exact {got!r} above at-least {atl!r}")
    return problems


def frequency_limit(n_states: int) -> float:
    """Largest |c1 - c2| / sqrt(c1 + c2) a correct program may show.

    Under equal laws and equal sample counts, c1 given c1 + c2 is
    hypergeometric, and Hoeffding's inequality bounds the chance of one
    state exceeding z by 2 exp(-z^2 / 2).  The limit is 4 standard
    errors, raised until the union over ``n_states`` states stays below
    FREQUENCY_FAMILY_ALPHA.
    """
    z = math.sqrt(2.0 * math.log(2.0 * max(n_states, 1) / FREQUENCY_FAMILY_ALPHA))
    return max(FREQUENCY_MIN_SE, z)


def check_frequencies(explore_counts: Counter, chain_counts: Counter,
                      n_explore: int, n_chain: int) -> Tuple[List[str], float]:
    """Per-state visit counts of exploration against the chain.

    Returns the problems and the largest standardised difference seen.
    """
    if n_explore != n_chain or n_explore < 1:
        return [f"sample counts differ: {n_explore} vs {n_chain}"], math.inf
    states = set(explore_counts) | set(chain_counts)
    limit = frequency_limit(len(states))
    problems = []
    worst = 0.0
    for st in sorted(states):
        c1, c2 = explore_counts[st], chain_counts[st]
        z = abs(c1 - c2) / math.sqrt(c1 + c2)
        worst = max(worst, z)
        if z > limit:
            problems.append(f"state {st}: explore {c1}, chain {c2} of "
                            f"{n_explore} ({z:.2f} > {limit:.2f} SE)")
    return problems, worst
