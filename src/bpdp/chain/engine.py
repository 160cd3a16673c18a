"""Exact dynamic program over the projected chain, in scaled linear arithmetic.

The projected chain lives on (width, height, frame state).  Every
transition either increases the semi-perimeter phi = w + h or, at fixed
dimensions, strictly increases the frame rank, so processing levels in
ascending phi (and ranks in ascending order within a level) visits every
state after all of its predecessors.  Level arrays are kept in a ring of
max-jump-plus-one slots; memory is O(L), work is O(L^2).

Probabilities fall as low as exp(-1e5), far below the smallest double, so
each level is stored the way the scaled HMM forward algorithm stores its
columns (Rabiner, Proc. IEEE 1989): the level's probabilities divided by
its largest entry, with the logarithm of that divisor kept beside it.  A
rule's probability factors into a width part and a height part, so every
edge adds source * width factor * reversed height factor, times
exp(source scale - target scale), into a whole target row with a few
ufunc calls on contiguous slices.

Entries more than about e^-708 below their level's largest entry (below
the smallest normal double after the division) are flushed to zero; this
also keeps subnormal numbers, which are slow, out of the sweep.  At the
default threshold the flushed entries are 20% of all level entries at
p = 2^-8 and 30% at p = 2^-9; log_pi there stayed within 1.1e-13
relative of a log-domain sweep that flushes nothing (k = 2..9).  At long
thresholds most entries flush (67% at p = 0.5, L = 2000; 77% at p = 0.9,
L = 800), and log_hit_prob stayed within 1e-13 absolute of that sweep.
The flushed mass is measured, not bounded.

One sweep fills each level on one thread, and the edge vectors are added
in a fixed canonical order (source phi ascending, source width ascending,
source state order), so the result is bit-identical from run to run.  The
hit probabilities come from the same edge vectors: summed per source
level, then combined across levels in log space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..numerics import NEG_INF
from ..special_functions import ModelParams
from .rules import (FROBOSE_STATES, FROBOSE_TABLE, RANK, TWO_NEIGHBOUR_STATES,
                    TWO_NEIGHBOUR_TABLE, TransitionRule)

__all__ = ["ChainParams", "PiResult", "ResourceCapError", "default_threshold",
           "compute_pi", "compute_two_neighbour_lower_bound"]

_PAD = 6
_TINY = np.finfo(float).tiny


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

    # -- factor precomputation ------------------------------------------------
    def _prepare_vectors(self):
        # A rule's probability at source (w, h) is const * a[w] * b[h].  The
        # constant is folded into the width factor, or into the height factor
        # when the rule does not depend on the width; a factor the rule does
        # not depend on is None.  Height factors are stored reversed.
        # Dummies (1) at non-positive arguments are harmless because those
        # positions only ever meet zero source entries.
        p, q = self.params.p, self.params.q
        n = np.arange(-_PAD, self.N - _PAD, dtype=float)
        self._factors = []
        for rule in self.table:
            const = p ** rule.n_logp
            if rule.log4m3p:
                const *= 4.0 - 3.0 * p
            parts = {"a": np.ones(self.N), "b": np.ones(self.N)}
            used = set()
            for dim, shift in rule.f_terms:
                if dim is None:
                    const *= -math.expm1(-q * shift)
                else:
                    arg = (n + shift) * q
                    parts[dim] *= np.where(arg > 0.0,
                                           -np.expm1(-np.maximum(arg, q)), 1.0)
                    used.add(dim)
            for dim, shift, coeff in rule.q_terms:
                if dim is None:
                    const *= math.exp(-q * coeff * shift)
                else:
                    parts[dim] *= np.exp(-q * coeff * np.maximum(n + shift, 0.0))
                    used.add(dim)
            a = b_rev = None
            if "b" in used:
                b_rev = parts["b"][::-1].copy()
            if "a" in used or b_rev is None:
                a = parts["a"] * const
            else:
                b_rev *= const
            self._factors.append((a, b_rev))

    def _prepare_edges(self):
        # _into: (target row, incoming edges) in stage order, each edge as
        # (dphi, source row, dw, a, b_rev) and in canonical order: source phi
        # ascending (dphi descending), source w ascending (dw descending),
        # source state order ascending.
        incoming = {s: [] for s in self.states}
        for i, rule in enumerate(self.table):
            if rule.src == rule.dst and rule.dphi == 0:
                continue  # absorbing self-loop: excluded from reach recursion
            incoming[rule.dst].append(i)
        self._into = []
        for s in sorted(self.states, key=RANK.__getitem__):
            order = sorted(incoming[s], key=lambda i: (
                -self.table[i].dphi, -self.table[i].dw,
                self.sidx[self.table[i].src]))
            self._into.append((self.sidx[s], [self._edge(i) for i in order]))
        self.crossing = [i for i, r in enumerate(self.table) if r.dphi > 0]

    def _edge(self, i: int):
        rule = self.table[i]
        return (rule.dphi, self.sidx[rule.src], rule.dw) + self._factors[i]

    # -- per-level kernels ----------------------------------------------------
    def _edge_into(self, edge, src, sphi: int, lo: int, out):
        """out = flow along an edge from level sphi (stored array src, in its
        own scale) into target widths lo .. lo + len(out) - 1."""
        _, s, dw, a, b_rev = edge
        cnt = len(out)
        s0 = lo - dw + _PAD
        vals = src[s, s0:s0 + cnt]
        # b-indexed part: source height = sphi - (w - dw), a reversed slice
        r0 = self.N - 1 - (sphi - lo + dw + _PAD)
        if a is None:
            return np.multiply(vals, b_rev[r0:r0 + cnt], out=out)
        np.multiply(vals, a[s0:s0 + cnt], out=out)
        if b_rev is not None:
            np.multiply(out, b_rev[r0:r0 + cnt], out=out)
        return out

    def _fill(self, phi: int, scale: float):
        """Flow into target widths [1, phi) of level phi, relative to
        exp(scale).  The first edge into a row overwrites it, so nothing
        is cleared: a slot is fresh (zeros, plus the seed at phi = 2) until
        phi = 2 + window, and from phi = 1 + window on every edge has a
        source, so every row with an incoming edge is overwritten."""
        levels, window = self._levels, self.window
        cur = levels[phi % window]
        # factor[dphi]: exp(source scale - scale), None below the seed level
        factor = [1.0] + [math.exp(self._scales[(phi - d) % window] - scale)
                          if phi - d >= 2 else None
                          for d in range(1, self.max_dphi + 1)]
        tmp = self._tmp[:phi - 1]
        for t, edges in self._into:
            row = cur[t, 1 + _PAD:phi + _PAD]
            out = row           # the first edge writes the row directly
            for edge in edges:
                dphi = edge[0]
                fac = factor[dphi]
                if fac is None:
                    continue
                self._edge_into(edge, levels[(phi - dphi) % window],
                                phi - dphi, 1, out)
                if fac != 1.0:
                    np.multiply(out, fac, out=out)
                if out is tmp:
                    np.add(row, tmp, out=row)
                out = tmp

    # -- main loop ------------------------------------------------------------
    def run(self):
        """Returns (log hit prob exact, log hit prob at-least)."""
        L = self.L
        if L == 2:
            return 0.0, 0.0
        self._levels = np.zeros((self.window, len(self.states), self.N))
        self._scales = [0.0] * self.window
        self._tmp = np.empty(self.N)
        for phi in range(2, L):
            slot = phi % self.window
            live = self._levels[slot, :, 1 + _PAD:phi + _PAD]
            if phi == 2:
                # seed; _fill then runs the seed level's creation chain
                live[self.sidx["0"], 0] = 1.0
                scale = 0.0
            else:
                scale = max(self._scales[(phi - d) % self.window]
                            for d in range(1, self.max_dphi + 1) if phi - d >= 2)
            self._fill(phi, scale)
            top = live.max()
            if top > 0.0:
                inv = 1.0 / top
                live *= inv
                scale -= math.log(inv)      # the divisor actually applied
                np.copyto(live, 0.0, where=live < _TINY)
            self._scales[slot] = scale
        return self._hits()

    def _hits(self):
        # phi only increases, so every path leaves the levels below L exactly
        # once, along a crossing edge into a level t in L .. L+max_dphi-1:
        # the edge vectors out of the stored levels below L are the inflow
        # into those levels, an exact hit when t = L.  Each vector is taken
        # over source widths 1 .. sphi-1 (target lo = 1 + dw) and summed in
        # the canonical order (source width, source state, rule) within a
        # level; the per-level sums are then combined in log space in
        # ascending source phi.
        L = self.L
        exact = at_least = NEG_INF
        for sphi in range(max(2, L - self.max_dphi), L):
            src = self._levels[sphi % self.window]
            scale = self._scales[sphi % self.window]
            edges = [self._edge(i) for _, i in sorted(
                (self.sidx[self.table[i].src], i) for i in self.crossing
                if sphi + self.table[i].dphi >= L)]
            rows = np.empty((sphi - 1, len(edges)))   # (source width, edge)
            for j, edge in enumerate(edges):
                self._edge_into(edge, src, sphi, 1 + edge[2], rows[:, j])
            lands_on_L = np.array([sphi + edge[0] == L for edge in edges])
            at_least = _log_add(at_least, rows.sum(), scale)
            exact = _log_add(exact, rows[:, lands_on_L].sum(), scale)
        return exact, at_least


def _log_add(acc: float, total: float, scale: float) -> float:
    """log(exp(acc) + total * exp(scale)) for total >= 0."""
    if total <= 0.0:
        return acc
    x = math.log(total) + scale
    hi, lo = max(acc, x), min(acc, x)
    return hi if lo == NEG_INF else hi + math.log1p(math.exp(lo - hi))


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
