"""Exact log-domain dynamic program over the projected chain.

The projected chain lives on (width, height, frame state).  Every
transition either increases the semi-perimeter phi = w + h or, at fixed
dimensions, strictly increases the frame rank, so processing levels in
ascending phi (and ranks in ascending order within a level) visits every
state after all of its predecessors.  Level arrays are kept for a sliding
window of max-jump-plus-one levels; memory is O(L), work is O(L^2).

One sweep fills each level on one thread: every edge contributes a vector
over the width axis, and the vectors are folded with np.logaddexp in a
fixed canonical edge order (source phi ascending, source width ascending,
source state order).  The hit probabilities come from the same edge
vectors, so the result is deterministic to the bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..numerics import NEG_INF
from ..special_functions import ModelParams, f
from .rules import (FROBOSE_STATES, FROBOSE_TABLE, RANK, TWO_NEIGHBOUR_STATES,
                    TWO_NEIGHBOUR_TABLE, TransitionRule)

__all__ = ["ChainParams", "PiResult", "ResourceCapError", "default_threshold",
           "compute_pi", "compute_two_neighbour_lower_bound"]

_PAD = 6


class ResourceCapError(RuntimeError):
    """Estimated working memory exceeds the configured cap."""


def default_threshold(p: float) -> int:
    """L = ceil(2 log(1/p) / p) with the natural logarithm."""
    return math.ceil(2.0 * math.log(1.0 / p) / p)


@dataclass(frozen=True)
class ChainParams:
    """Model parameter, target semi-perimeter and hit convention."""

    model: ModelParams
    threshold: int
    convention: str = "exact"      # "exact": phi hits L; "at-least": phi >= L

    def __post_init__(self):
        if self.threshold < 2:
            raise ValueError("threshold must be >= 2")
        if self.convention not in ("exact", "at-least"):
            raise ValueError(f"unknown convention {self.convention!r}")

    @classmethod
    def from_p(cls, p: float, threshold: Optional[int] = None,
               convention: str = "exact") -> "ChainParams":
        model = ModelParams(p)
        if threshold is None:
            threshold = default_threshold(p)
        return cls(model, threshold, convention)


@dataclass(frozen=True)
class PiResult:
    p: float
    q: float
    threshold: int
    convention: str
    log_hit_prob: float
    log_pi: float
    wall_time_seconds: float
    model: str = "frobose"


class _Engine:
    """Single-use DP state for one rule table at one parameter."""

    def __init__(self, table: Sequence[TransitionRule], states: Sequence[str],
                 params: ModelParams, threshold: int,
                 memory_cap_bytes: int = 8 << 30):
        self.table = list(table)
        self.states = list(states)
        self.sidx = {s: i for i, s in enumerate(states)}
        self.params = params
        self.L = threshold
        self.max_dphi = max(r.dphi for r in self.table)
        self.window = self.max_dphi + 1
        self.N = self.L + 2 * _PAD + 4       # width-axis length, index = w + _PAD
        est = self.window * len(states) * self.N * 8
        if est > memory_cap_bytes:
            raise ResourceCapError(
                f"estimated {est} bytes of level storage exceeds cap "
                f"{memory_cap_bytes}")
        self._prepare_vectors()
        self._prepare_edges()

    # -- cost precomputation ------------------------------------------------
    def _prepare_vectors(self):
        q = self.params.q
        n = np.arange(-_PAD, self.N - _PAD, dtype=float)
        self._negcost_rev = []
        for rule in self.table:
            const = rule.n_logp * math.log(1.0 / self.params.p)
            if rule.log4m3p:
                const -= math.log(4.0 - 3.0 * self.params.p)
            # Width-indexed and height-indexed cost parts are kept separate;
            # dummies at non-positive arguments are harmless because those
            # positions only ever meet -inf source entries.
            a_vec = np.zeros(self.N)
            b_vec = np.zeros(self.N)
            scalar = const
            for dim, shift in rule.f_terms:
                if dim is None:
                    scalar += float(f(q * shift))
                elif dim == "a":
                    arg = (n + shift) * q
                    a_vec += np.where(arg > 0.0, f(np.maximum(arg, q)), 0.0)
                else:
                    arg = (n + shift) * q
                    b_vec += np.where(arg > 0.0, f(np.maximum(arg, q)), 0.0)
            for dim, shift, coeff in rule.q_terms:
                if dim is None:
                    scalar += q * coeff * shift
                elif dim == "a":
                    a_vec += q * coeff * np.maximum(n + shift, 0.0)
                else:
                    b_vec += q * coeff * np.maximum(n + shift, 0.0)
            self._negcost_rev.append((-(a_vec + scalar), -b_vec[::-1]))

    def _prepare_edges(self):
        # incoming[target state] in canonical order: source phi ascending
        # (dphi descending), source w ascending (dw descending), source
        # state order ascending.
        self.incoming = {s: [] for s in self.states}
        for i, rule in enumerate(self.table):
            if rule.src == rule.dst and rule.dphi == 0:
                continue  # absorbing self-loop: excluded from reach recursion
            self.incoming[rule.dst].append(i)
        for s in self.states:
            self.incoming[s].sort(
                key=lambda i: (-self.table[i].dphi, -self.table[i].dw,
                               self.sidx[self.table[i].src]))
        ranks = sorted({RANK[s] for s in self.states})
        self.stages = [[s for s in self.states if RANK[s] == r] for r in ranks]
        self.crossing = [i for i, r in enumerate(self.table) if r.dphi > 0]

    # -- per-level kernels ----------------------------------------------------
    def _edge_contrib(self, i: int, phi: int, levels, cur, lo: int, hi: int):
        """Contribution vector of edge i into target widths [lo, hi)."""
        rule = self.table[i]
        sphi = phi - rule.dphi
        if sphi < 2:
            return None
        srclvl = cur if rule.dphi == 0 else levels.get(sphi)
        if srclvl is None:
            return None
        srow = srclvl[self.sidx[rule.src]]
        cnt = hi - lo
        s0 = lo - rule.dw + _PAD
        vals = srow[s0:s0 + cnt]
        neg_a, neg_b_rev = self._negcost_rev[i]
        out = vals + neg_a[s0:s0 + cnt]
        # b-indexed part: source height = sphi - (w - dw), a reversed slice
        u0 = sphi - lo + rule.dw + _PAD
        r0 = self.N - 1 - u0
        out += neg_b_rev[r0:r0 + cnt]
        return out

    def _fill(self, phi, levels, cur):
        for stage in self.stages:
            for s in stage:
                acc = None
                for i in self.incoming[s]:
                    contrib = self._edge_contrib(i, phi, levels, cur, 1, phi)
                    if contrib is None:
                        continue
                    if acc is None:
                        acc = contrib
                    else:
                        np.logaddexp(acc, contrib, out=acc)
                if acc is not None:
                    cur[self.sidx[s], 1 + _PAD:phi + _PAD] = acc

    # -- main loop ------------------------------------------------------------
    def run(self):
        """Returns (log hit prob exact, log hit prob at-least)."""
        L = self.L
        if L == 2:
            return 0.0, 0.0
        nstates = len(self.states)
        levels = {}
        for phi in range(2, L):
            cur = np.full((nstates, self.N), NEG_INF)
            if phi == 2:
                # seed; _fill then runs the seed level's creation chain
                cur[self.sidx["0"], 1 + _PAD] = 0.0
            self._fill(phi, levels, cur)
            levels[phi] = cur
            levels.pop(phi - self.window, None)
        return self._hits(levels)

    def _hits(self, levels):
        # phi only increases, so every path leaves the levels below L exactly
        # once, along a crossing edge into a level t in L .. L+max_dphi-1:
        # the edge vectors out of the stored levels below L are the inflow
        # into those levels, an exact hit when t = L.  Each vector is taken
        # over source widths 1 .. sphi-1 (target lo = 1 + dw), so the fold
        # keeps the canonical order: source phi, source width, source
        # state, rule.
        L = self.L
        exact = at_least = NEG_INF
        for sphi in range(max(2, L - self.max_dphi), L):
            edges = sorted((self.sidx[self.table[i].src], i) for i in self.crossing
                           if sphi + self.table[i].dphi >= L)
            rows = np.empty((sphi - 1, len(edges)))   # (source width, edge)
            for j, (_, i) in enumerate(edges):
                rule = self.table[i]
                rows[:, j] = self._edge_contrib(i, sphi + rule.dphi, levels, None,
                                                1 + rule.dw, sphi + rule.dw)
            lands_on_L = np.array([sphi + self.table[i].dphi == L
                                   for _, i in edges], dtype=bool)
            at_least = np.logaddexp.reduce(rows.ravel(), initial=at_least)
            exact = np.logaddexp.reduce(rows[:, lands_on_L].ravel(),
                                        initial=exact)
        return float(exact), float(at_least)


def _run(table, states, params: ChainParams, memory_cap_bytes,
         model_name: str) -> PiResult:
    t0 = time.perf_counter()
    eng = _Engine(table, states, params.model, params.threshold,
                  memory_cap_bytes=memory_cap_bytes)
    hit_exact, hit_atl = eng.run()
    hit = hit_exact if params.convention == "exact" else hit_atl
    wall = time.perf_counter() - t0
    return PiResult(
        p=params.model.p, q=params.model.q, threshold=params.threshold,
        convention=params.convention, log_hit_prob=hit,
        log_pi=0.0 if hit == 0.0 else -hit / 2.0,
        wall_time_seconds=wall, model=model_name,
    )


def compute_pi(params: ChainParams, threads: int = 1,
               memory_cap_bytes: int = 8 << 30) -> PiResult:
    """Growth scale of the local Frobose model.

    log_pi = -log P(chain from (1,1,state 0) hits semi-perimeter L) / 2,
    where the hit is exact or at-least per the convention.  The sweep runs
    on one thread and is deterministic to the bit; ``threads`` is accepted
    for callers that pass it and is ignored.
    """
    return _run(FROBOSE_TABLE, FROBOSE_STATES, params, memory_cap_bytes,
                "frobose")


def compute_two_neighbour_lower_bound(params: ChainParams, threads: int = 1,
                                      memory_cap_bytes: int = 8 << 30) -> PiResult:
    """Same computation over the published two-neighbour rows.

    The published table is sub-stochastic (it is an excerpt), so the hit
    probability is a lower bound and the returned log_pi an upper bound;
    this makes no claim to equal the true two-neighbour growth scale.
    ``threads`` is ignored, as in compute_pi.
    """
    return _run(TWO_NEIGHBOUR_TABLE, TWO_NEIGHBOUR_STATES, params,
                memory_cap_bytes, "two-neighbour-lower-bound")
