"""Framed-rectangle Markov chain: transition tables, exact DP, oracles."""

from .engine import (DEFAULT_MEMORY_CAP_BYTES, ChainParams, PiResult,
                     ResourceCapError, compute_pi,
                     compute_two_neighbour_lower_bound, default_threshold)
from .oracle import BRUTE_FORCE_MAX_L, brute_force_hit_prob, sample_trajectory
from .rules import (FRAME_BUFFERS, FROBOSE_STATES, FROBOSE_TABLE, RANK,
                    TWO_NEIGHBOUR_STATES, TWO_NEIGHBOUR_TABLE,
                    TransitionRule, frobose_transitions,
                    two_neighbour_transitions)

__all__ = [
    "DEFAULT_MEMORY_CAP_BYTES", "ChainParams", "PiResult",
    "ResourceCapError", "compute_pi",
    "compute_two_neighbour_lower_bound", "default_threshold",
    "BRUTE_FORCE_MAX_L", "brute_force_hit_prob", "sample_trajectory",
    "FRAME_BUFFERS", "FROBOSE_STATES", "FROBOSE_TABLE", "RANK",
    "TWO_NEIGHBOUR_STATES", "TWO_NEIGHBOUR_TABLE", "TransitionRule",
    "frobose_transitions", "two_neighbour_transitions",
]
