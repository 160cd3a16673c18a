"""Transition tables of the framed-rectangle Markov chain.

A framed rectangle carries a frame state recording which boundary buffers
are known to be free of infections.  The chain moves by buffer creations
(reveal an empty buffer, rank goes up), loops (extend one side, state
unchanged) and buffer deletions (a revealed infection consumes buffers and
grows the rectangle on several sides at once).

``FROBOSE_TABLE`` is the full stochastic table of the local Frobose model:
out of every state the transition probabilities sum to one exactly.
``TWO_NEIGHBOUR_TABLE`` holds the published excerpt of the two-neighbour
table; it is sub-stochastic (the remaining rows of the full table are not
public) and is only good for a lower-bound computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..special_functions import ModelParams

__all__ = [
    "FrameState", "TransitionRule", "FROBOSE_STATES", "TWO_NEIGHBOUR_STATES",
    "FRAME_BUFFERS", "RANK", "frobose_transitions", "two_neighbour_transitions",
    "FROBOSE_TABLE", "TWO_NEIGHBOUR_TABLE",
]

FrameState = str

FROBOSE_STATES: Tuple[FrameState, ...] = ("0", "1", "1'", "1''", "2", "2'", "3", "4")
TWO_NEIGHBOUR_STATES: Tuple[FrameState, ...] = (
    "0", "1", "1'", "1''", "2", "2'", "2''", "3", "4"
)

# The side buffers each frame state has revealed empty: right, up, left,
# down.  A buffer creation adds one at fixed dimensions.
FRAME_BUFFERS = {
    "0": (), "1": ("r",), "1'": ("l",), "1''": ("u",),
    "2": ("r", "u"), "2'": ("u", "l"), "2''": ("r", "l"),
    "3": ("r", "u", "l"), "4": ("r", "u", "l", "d"),
}

# Rank = number of revealed buffers; creations raise it at fixed dimensions.
RANK = {s: len(buffers) for s, buffers in FRAME_BUFFERS.items()}


@dataclass(frozen=True)
class TransitionRule:
    """One table row.

    Offsets (alpha, beta, gamma, delta) extend the rectangle left, bottom,
    right, top.  The probability is structured as

        p^n_logp * prod_f_terms e^{-f(q*(dim+shift))}
        * e^{-q * sum_q_terms coeff*(dim+shift)} * (extra constant in p)

    where each dim is 'a' (width) or 'b' (height) of the *source*
    rectangle, or None for a fixed integer argument.
    """

    src: FrameState
    dst: FrameState
    alpha: int
    beta: int
    gamma: int
    delta: int
    n_logp: int = 0
    f_terms: tuple = ()       # ((dim, shift), ...)
    q_terms: tuple = ()       # ((dim, shift, coeff), ...); dim None -> shift only
    log4m3p: bool = False     # times (4-3p) (triple deletion row)

    @property
    def dw(self) -> int:
        return self.alpha + self.gamma

    @property
    def dh(self) -> int:
        return self.beta + self.delta

    @property
    def dphi(self) -> int:
        return self.dw + self.dh

    def linear_prob(self, w: int, h: int, params: ModelParams) -> float:
        """Transition probability at source dimensions (w, h), in plain
        linear arithmetic: the one statement of the rule, which the
        stochasticity check and the brute-force oracle evaluate directly.
        """
        p, q = params.p, params.q
        dims = {"a": w, "b": h, None: 0}
        prob = p ** self.n_logp
        for dim, shift in self.f_terms:
            prob *= -math.expm1(-q * (dims[dim] + shift))
        for dim, shift, coeff in self.q_terms:
            prob *= math.exp(-q * coeff * (dims[dim] + shift))
        if self.log4m3p:
            prob *= 4.0 - 3.0 * p
        return prob


def _rule(src, dst, a, b, g_, d, n_logp=0, f_terms=(), q_terms=(), log4m3p=False):
    return TransitionRule(src, dst, a, b, g_, d, n_logp,
                          tuple(f_terms), tuple(q_terms), log4m3p)


# Full table of the local Frobose chain: 7 buffer creations, 8 loops
# (including the absorbing self-loop of state 4), 7 single deletions,
# 5 double deletions, 1 triple deletion.
FROBOSE_TABLE: Tuple[TransitionRule, ...] = (
    # buffer creations (dimensions fixed, rank up)
    _rule("0", "1", 0, 0, 0, 0, q_terms=[("b", 0, 1)]),
    _rule("1", "2", 0, 0, 0, 0, q_terms=[("a", 0, 1)]),
    _rule("2", "3", 0, 0, 0, 0, q_terms=[("b", 0, 1)]),
    _rule("3", "4", 0, 0, 0, 0, q_terms=[("a", 0, 1)]),
    _rule("2'", "3", 0, 0, 0, 0, q_terms=[("b", 0, 1)]),
    _rule("1'", "2'", 0, 0, 0, 0, q_terms=[("a", 0, 1)]),
    _rule("1''", "2", 0, 0, 0, 0, q_terms=[("b", 0, 1)]),
    # loops
    _rule("0", "0", 0, 0, 1, 0, f_terms=[("b", 0)]),
    _rule("1", "1", 0, 0, 0, 1, f_terms=[("a", 0)], q_terms=[(None, 1, 1)]),
    _rule("2", "2", 1, 0, 0, 0, f_terms=[("b", 0)], q_terms=[(None, 1, 1)]),
    _rule("3", "3", 0, 1, 0, 0, f_terms=[("a", 0)], q_terms=[(None, 2, 1)]),
    _rule("2'", "2'", 0, 0, 1, 0, f_terms=[("b", 0)], q_terms=[(None, 1, 1)]),
    _rule("1'", "1'", 0, 0, 0, 1, f_terms=[("a", 0)], q_terms=[(None, 1, 1)]),
    _rule("1''", "1''", 0, 0, 1, 0, f_terms=[("b", 0)], q_terms=[(None, 1, 1)]),
    _rule("4", "4", 0, 0, 0, 0),
    # single buffer deletions
    _rule("1", "0", 0, 0, 1, 1, n_logp=1, f_terms=[("a", 0)]),
    _rule("2", "1", 1, 0, 0, 1, n_logp=1, f_terms=[("b", 0)], q_terms=[(None, 1, 1)]),
    _rule("3", "2", 1, 1, 0, 0, n_logp=1, f_terms=[("a", 0)], q_terms=[(None, 2, 1)]),
    _rule("3", "2'", 0, 1, 1, 0, n_logp=1, f_terms=[("a", 0)], q_terms=[(None, 2, 1)]),
    _rule("2'", "1'", 0, 0, 1, 1, n_logp=1, f_terms=[("b", 0)], q_terms=[(None, 1, 1)]),
    _rule("1'", "0", 1, 0, 0, 1, n_logp=1, f_terms=[("a", 0)]),
    _rule("1''", "0", 0, 0, 1, 1, n_logp=1, f_terms=[("b", 0)]),
    # double buffer deletions
    _rule("2", "0", 1, 0, 1, 1, n_logp=2, f_terms=[("b", 0)]),
    _rule("2'", "0", 1, 0, 1, 1, n_logp=2, f_terms=[("b", 0)]),
    _rule("3", "1", 1, 1, 0, 1, n_logp=2, f_terms=[("a", 0)], q_terms=[(None, 2, 1)]),
    _rule("3", "1'", 0, 1, 1, 1, n_logp=2, f_terms=[("a", 0)], q_terms=[(None, 2, 1)]),
    _rule("3", "1''", 1, 1, 1, 0, n_logp=2, f_terms=[("a", 0)], q_terms=[(None, 2, 1)]),
    # triple buffer deletion
    _rule("3", "0", 1, 1, 1, 1, n_logp=3, f_terms=[("a", 0)], log4m3p=True),
)


# Published rows of the two-neighbour chain (thickness-2 buffers with
# corner cells).  The full table has 221 rows; these are the ones that
# carry the second-order term, so every out-of-state sum is < 1.
TWO_NEIGHBOUR_TABLE: Tuple[TransitionRule, ...] = (
    # buffer creations
    _rule("0", "1", 0, 0, 0, 0, q_terms=[("b", 0, 2)]),
    _rule("1", "2", 0, 0, 0, 0, q_terms=[("a", 0, 2), (None, 1, 1)]),
    _rule("2", "3", 0, 0, 0, 0, q_terms=[("b", 0, 2), (None, 1, 1)]),
    _rule("3", "4", 0, 0, 0, 0, q_terms=[("a", 0, 2), (None, 2, 1)]),
    _rule("2'", "3", 0, 0, 0, 0, q_terms=[("b", 0, 2), (None, 1, 1)]),
    _rule("1'", "2'", 0, 0, 0, 0, q_terms=[("a", 0, 2), (None, 1, 1)]),
    # loops (two per live state: step of one or two)
    _rule("0", "0", 0, 0, 1, 0, f_terms=[("b", 0)]),
    _rule("0", "0", 0, 0, 2, 0, f_terms=[("b", 0)], q_terms=[("b", 0, 1)]),
    _rule("1", "1", 0, 0, 0, 1, f_terms=[("a", 0)], q_terms=[(None, 2, 1)]),
    _rule("1", "1", 0, 0, 0, 2, f_terms=[("a", 0)], q_terms=[("a", 4, 1)]),
    _rule("2", "2", 1, 0, 0, 0, f_terms=[("b", 0)], q_terms=[(None, 2, 1)]),
    _rule("2", "2", 2, 0, 0, 0, f_terms=[("b", 0)], q_terms=[("b", 4, 1)]),
    _rule("3", "3", 0, 1, 0, 0, f_terms=[("a", 0)], q_terms=[(None, 4, 1)]),
    _rule("3", "3", 0, 2, 0, 0, f_terms=[("a", 0)], q_terms=[("a", 8, 1)]),
    _rule("2'", "2'", 0, 0, 1, 0, f_terms=[("b", 0)], q_terms=[(None, 2, 1)]),
    _rule("2'", "2'", 0, 0, 2, 0, f_terms=[("b", 0)], q_terms=[("b", 4, 1)]),
    _rule("1'", "1'", 0, 0, 0, 1, f_terms=[("a", 0)], q_terms=[(None, 4, 1)]),
    _rule("1'", "1'", 0, 0, 0, 2, f_terms=[("a", 0)], q_terms=[("a", 8, 1)]),
    _rule("4", "4", 0, 0, 0, 0),
    # buffer deletions
    _rule("1", "0", 0, 0, 2, 1, n_logp=1, f_terms=[("a", 1)]),
    _rule("1", "0", 0, 0, 3, 1, n_logp=1, f_terms=[("b", 1)], q_terms=[(None, 1, 1)]),
    _rule("1", "0", 0, 0, 2, 2, f_terms=[(None, 2), ("a", 0)], q_terms=[("a", 1, 1)]),
    _rule("1", "0", 0, 0, 3, 2, n_logp=1, f_terms=[("a", 0), ("b", 2)],
          q_terms=[("a", 3, 1)]),
    _rule("1'", "0", 2, 0, 0, 1, n_logp=1, f_terms=[("a", 1)]),
    _rule("1'", "0", 3, 0, 0, 1, n_logp=1, f_terms=[("b", 1)], q_terms=[(None, 1, 1)]),
    _rule("1'", "0", 2, 0, 0, 2, f_terms=[(None, 2), ("a", 0)], q_terms=[("a", 1, 1)]),
    _rule("1'", "0", 3, 0, 0, 2, n_logp=1, f_terms=[("a", 0), ("b", 2)],
          q_terms=[("a", 3, 1)]),
    _rule("2", "1", 1, 0, 0, 2, n_logp=1, f_terms=[("b", 1)], q_terms=[(None, 3, 1)]),
    _rule("2", "1", 1, 0, 0, 3, n_logp=1, f_terms=[("a", 1)], q_terms=[(None, 6, 1)]),
    _rule("2", "1", 2, 0, 0, 2, f_terms=[(None, 2), ("b", 0)], q_terms=[("b", 4, 1)]),
    _rule("2", "1", 2, 0, 0, 3, n_logp=1, f_terms=[("b", 0), ("a", 2)],
          q_terms=[("b", 8, 1)]),
    _rule("2'", "1'", 0, 0, 1, 2, n_logp=1, f_terms=[("b", 1)], q_terms=[(None, 3, 1)]),
    _rule("2'", "1'", 0, 0, 1, 3, n_logp=1, f_terms=[("a", 1)], q_terms=[(None, 6, 1)]),
    _rule("2'", "1'", 0, 0, 2, 2, f_terms=[(None, 2), ("b", 0)], q_terms=[("b", 4, 1)]),
    _rule("2'", "1'", 0, 0, 2, 3, n_logp=1, f_terms=[("b", 0), ("a", 2)],
          q_terms=[("b", 8, 1)]),
    _rule("3", "2'", 0, 1, 2, 0, n_logp=1, f_terms=[("a", 1)], q_terms=[(None, 5, 1)]),
    _rule("3", "2'", 0, 1, 3, 0, n_logp=1, f_terms=[("b", 1)], q_terms=[(None, 8, 1)]),
    _rule("3", "2'", 0, 2, 2, 0, f_terms=[(None, 2), ("a", 0)], q_terms=[("a", 8, 1)]),
    _rule("3", "2'", 0, 2, 3, 0, n_logp=1, f_terms=[("a", 0), ("b", 2)],
          q_terms=[("a", 12, 1)]),
    _rule("3", "2", 2, 1, 0, 0, n_logp=1, f_terms=[("a", 1)], q_terms=[(None, 5, 1)]),
    _rule("3", "2", 3, 1, 0, 0, n_logp=1, f_terms=[("b", 1)], q_terms=[(None, 8, 1)]),
    _rule("3", "2", 2, 2, 0, 0, f_terms=[(None, 2), ("a", 0)], q_terms=[("a", 8, 1)]),
    _rule("3", "2", 3, 2, 0, 0, n_logp=1, f_terms=[("a", 0), ("b", 2)],
          q_terms=[("a", 12, 1)]),
)


def frobose_transitions(s: FrameState) -> Tuple[TransitionRule, ...]:
    """All table rows out of frame state s (Frobose model)."""
    if s not in FROBOSE_STATES:
        raise ValueError(f"unknown Frobose frame state {s!r}")
    return tuple(r for r in FROBOSE_TABLE if r.src == s)


def two_neighbour_transitions(s: FrameState) -> Tuple[TransitionRule, ...]:
    """Published table rows out of frame state s (two-neighbour model)."""
    if s not in TWO_NEIGHBOUR_STATES:
        raise ValueError(f"unknown two-neighbour frame state {s!r}")
    return tuple(r for r in TWO_NEIGHBOUR_TABLE if r.src == s)

