"""Independent oracles for the dynamic program.

``brute_force_hit_prob`` enumerates every trajectory of the projected
chain recursively, multiplying plain linear-domain probabilities and
summing with math.fsum.  No tables are shared with the DP: it is
exponential in the threshold and only feasible for small L, which is
exactly what makes it a trustworthy cross-check.

``sample_trajectory`` draws chain trajectories with a counter-based
generator for Monte Carlo comparison against lattice exploration.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .engine import ChainParams
from .rules import FROBOSE_STATES, frobose_transitions

__all__ = ["brute_force_hit_prob", "sample_trajectory", "BRUTE_FORCE_MAX_L"]

BRUTE_FORCE_MAX_L = 12

ProjectedState = Tuple[int, int, str]

# Rules out of each live frame state, in table row order; state 4 absorbs.
_RULES_BY_SRC = {s: frobose_transitions(s) for s in FROBOSE_STATES if s != "4"}


def brute_force_hit_prob(params: ChainParams) -> float:
    """log P(hit) by exhaustive recursion over all trajectories.

    Same semantics as compute_pi (convention included), evaluated without
    any shared state tables.  Rejects thresholds beyond BRUTE_FORCE_MAX_L.
    """
    L = params.threshold
    if L > BRUTE_FORCE_MAX_L:
        raise ValueError(
            f"threshold {L} exceeds brute-force bound {BRUTE_FORCE_MAX_L}")
    if L == 2:
        return 0.0
    model = params.model
    at_least = params.convention == "at-least"

    def hit_from(w: int, h: int, s: str) -> float:
        if s == "4":
            return 0.0
        parts = []
        for rule in _RULES_BY_SRC[s]:
            pi = rule.linear_prob(w, h, model)
            tphi = w + h + rule.dphi
            if tphi >= L:
                if at_least or tphi == L:
                    parts.append(pi)
            else:
                sub = hit_from(w + rule.dw, h + rule.dh, rule.dst)
                if sub:
                    parts.append(pi * sub)
        return math.fsum(parts)

    prob = hit_from(1, 1, "0")
    return math.log(prob) if prob > 0.0 else -math.inf


def sample_trajectory(params: ChainParams, seed: int) -> List[ProjectedState]:
    """One trajectory of the projected chain, Philox-seeded.

    Starts at (1, 1, state 0) and stops at absorption (frame state 4) or
    as soon as the semi-perimeter reaches the threshold.  The final element
    past the threshold is included so callers can classify exact hits.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    model = params.model
    L = params.threshold
    w, h, s = 1, 1, "0"
    out = [(w, h, s)]
    while s != "4" and w + h < L:
        u = rng.random()
        acc = 0.0
        chosen = None
        for rule in _RULES_BY_SRC[s]:
            acc += rule.linear_prob(w, h, model)
            if u < acc:
                chosen = rule
                break
        if chosen is None:
            # Float dust: the row sums to 1 only up to rounding, so a draw
            # u within a few ulps of 1 can exceed the running sum; stop the
            # trajectory there rather than pick a rule.
            break
        w, h, s = w + chosen.dw, h + chosen.dh, chosen.dst
        out.append((w, h, s))
    return out
