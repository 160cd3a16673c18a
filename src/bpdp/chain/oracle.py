"""Independent oracles for the dynamic program.

``brute_force_hit_prob`` enumerates every trajectory of the projected
chain recursively, multiplying plain linear-domain probabilities and
summing with math.fsum.  No tables are shared with the DP: it is
exponential in the threshold and only feasible for small L, which is
exactly what makes it a trustworthy cross-check.

``sample_trajectory`` draws chain trajectories with a counter-based
generator for Monte Carlo comparison against lattice exploration.  It
chooses each step from a table of running sums of ``linear_prob`` per
(w, h, state), filled on first visit with the same left-to-right
additions a loop over the rows would make, so every sum, and with it
every draw's outcome, is the same double.  The table is cached per
``ModelParams``: at most ``_CACHED_MODELS`` models, each with at most
``_ROWS_PER_MODEL`` rows (the model's table is emptied when it is full).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import Dict, List, Tuple

import numpy as np

from ..special_functions import ModelParams
from .engine import ChainParams
from .rules import FROBOSE_STATES, frobose_transitions

__all__ = ["brute_force_hit_prob", "sample_trajectory", "BRUTE_FORCE_MAX_L"]

BRUTE_FORCE_MAX_L = 12

ProjectedState = Tuple[int, int, str]

# Rules out of each live frame state, in table row order; state 4 absorbs.
_RULES_BY_SRC = {s: frobose_transitions(s) for s in FROBOSE_STATES if s != "4"}

# sample_trajectory's draws per generator call, and its table's bounds
_BLOCK = 16
_CACHED_MODELS = 8
_ROWS_PER_MODEL = 1 << 14

# A row: the running sums of the rules out of a state, in table row order,
# and the state each rule leads to.
Row = Tuple[List[float], List[ProjectedState]]


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


@functools.lru_cache(maxsize=_CACHED_MODELS)
def _running_sums(model: ModelParams) -> Dict[ProjectedState, Row]:
    """The model's rows built so far, keyed by (w, h, state).  Callers
    in two threads may build the same row twice; both build the same
    values."""
    return {}


def _add_row(rows: Dict[ProjectedState, Row], state: ProjectedState,
             model: ModelParams) -> Row:
    if len(rows) >= _ROWS_PER_MODEL:
        rows.clear()
    w, h, s = state
    sums, targets = [], []
    acc = 0.0
    for rule in _RULES_BY_SRC[s]:
        acc += rule.linear_prob(w, h, model)
        sums.append(acc)
        targets.append((w + rule.dw, h + rule.dh, rule.dst))
    row = rows[state] = (sums, targets)
    return row


def sample_trajectory(params: ChainParams, seed: int) -> List[ProjectedState]:
    """One trajectory of the projected chain, Philox-seeded.

    Starts at (1, 1, state 0) and stops at absorption (frame state 4) or
    as soon as the semi-perimeter reaches the threshold.  The final element
    past the threshold is included so callers can classify exact hits.

    Each step takes the generator's next double u and moves by the first
    rule out of the state whose running sum of ``linear_prob`` exceeds
    u: ``bisect_right`` over the row of (w, h, state), built by
    ``_add_row`` on the state's first visit.  The doubles are drawn
    ``_BLOCK`` at a time; ``Generator.random(n)`` gives the same values
    in the same order as n calls of ``random()``, so the trajectory of a
    seed does not depend on the block size.  If u is not below the row's
    last sum (float dust: the row sums to 1 only up to rounding, so a u
    within a few ulps of 1 can exceed it), the trajectory stops there
    rather than pick a rule.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    model = params.model
    rows = _running_sums(model)
    L = params.threshold
    state = (1, 1, "0")
    out = [state]
    draws: List[float] = []
    i = 0
    while state[2] != "4" and state[0] + state[1] < L:
        if i == len(draws):
            draws = rng.random(_BLOCK).tolist()
            i = 0
        row = rows.get(state)
        if row is None:
            row = _add_row(rows, state, model)
        sums, targets = row
        k = bisect_right(sums, draws[i])
        i += 1
        if k == len(sums):
            break   # float dust, see the docstring
        state = targets[k]
        out.append(state)
    return out
