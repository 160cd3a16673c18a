"""Exact dynamic program over the projected chain, in scaled linear arithmetic.

The projected chain lives on (width, height, frame state).  Every
transition either increases the semi-perimeter phi = w + h or, at fixed
dimensions, strictly increases the frame rank, so processing levels in
ascending phi (and ranks in ascending order within a level) visits every
state after all of its predecessors.  Level arrays are kept in a ring of
max-jump-plus-one slots; memory is O(L), work is O(L^2).

The sweep runs on the quotient of the chain by the coarsest strong
lumping of its table (Kemeny & Snell, Finite Markov Chains, 1960, 6.3),
found at import by partition refinement (Paige & Tarjan, SIAM J. Comput.
1987) from the rank classes: a block splits while its states differ in
the multiset of (block of target, dw, dh, factor key) over their rules.
Within a block every state then moves into each block, at each (dw, dh),
with the same probability at every (w, h) and p, so the mass of
(w, h, block) evolves as one state of it would and the hit probabilities
are exact, not approximated.  Frobose lumps 1 with 1' and 2 with 2'; a
block is stored as its first state, whose rules, with targets mapped to
blocks, are the block's, and rules with the same target block, steps and
factor key merge into one edge whose constant carries their number (3 to
2 and 2', 3 to 1 and 1').  The two-neighbour excerpt has no lumping (1 and
1' loop with e^{-2q} and e^{-4q}), so its plan is the table itself.  The
brute-force oracle, the trajectory sampler and the lattice bridge keep
the full table.

Everything about a table that does not depend on p is derived once, at
import, into a _Plan: the lumping, the rows a level stores, the edges
into each target row in canonical order, the crossing edges and the
distinct width-dependent terms.  A row that no moving rule leaves
(Frobose 4; two-neighbour 1'', 2'' and 4) is never read, so it is not
stored, filled, searched for the column maxima or flushed; the level
storage and the ResourceCapError estimate count only the stored rows.
Frobose stores 5 rows with 17 edges into them (13 crossing), against 7,
26 and 20 unlumped; the two-neighbour plan stores 6 rows with 41 edges.

A rule's probability at source (w, h) is const * a[w] * b[h], where a and
b are products of a few terms in one integer argument n: Frobose uses
two, 1 - e^{-qn} and e^{-qn}, and the two-neighbour excerpt about ten.  A
call computes each distinct term once, over all n, and each rule's factor
vector as its constant times one or two of them; rules with the same
constant and terms share one vector.  The constant is folded into the
width factor, or into the height factor when the rule does not depend on
the width, and height factors are stored reversed, so every edge adds
source * width factor * reversed height factor into a whole target row
with a few ufunc calls on contiguous slices.

Probabilities fall as low as exp(-1e5), far below the smallest double, so
levels are stored scaled, as the scaled HMM forward algorithm stores its
columns (Rabiner, Proc. IEEE 1989), but every level in the ring shares
one scale, whose logarithm is kept beside the ring.  A level is divided
by its largest entry only when that entry leaves the band [e^-16, 1] (88
of the 6389 levels at p = 2^-9), and the levels that later levels still
read are divided (and flushed) with it, so an edge never multiplies by a
ratio of scales.

Each ring slot records the contiguous width range [lo, hi) that survived
its flush, and a level is filled only over the union of its sources'
ranges shifted by 0 .. max dw, clipped to [1, phi); what the slot's
previous level left outside that range is cleared first.  The column
maxima after the fill give both the level's largest entry and its range.
The sweep fills 80% of the (w, h) cells at p = 2^-8 and 70% at p = 2^-9
(PiResult.cells_swept); a skipped cell would only sum zeros.

Entries below the smallest normal double are flushed to zero every level,
which also keeps slow subnormal numbers out of the sweep; as a level's
largest entry lies in [e^-16, 1], a flushed entry is at most about e^-692
below it.  Counted over all levels as the share of each level's
live-window entries that lie below the smallest normal double after its
fill, the sweep flushes 0.3% at p = 2^-8 and 0.2% at p = 2^-9, and log_pi
stayed within 1.1e-13 relative of a log-domain sweep that flushes nothing
(k = 2..9).  At long thresholds about half flush (46% at p = 0.5,
L = 2000; 51% at p = 0.9, L = 800), and log_hit_prob stayed within 4e-14
absolute of that sweep.  The flushed mass is measured, not bounded.

One sweep fills each level on one thread, and the edge vectors are added
in a fixed canonical order (source phi ascending, source width ascending,
source state order), so the result is bit-identical from run to run.  The
hit probabilities come from the crossing edges out of the last max-jump
levels: one dot product per edge over its source row's live widths,
all summed at once, as those levels share the ring's scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..special_functions import ModelParams
from .rules import (FROBOSE_STATES, FROBOSE_TABLE, RANK, TWO_NEIGHBOUR_STATES,
                    TWO_NEIGHBOUR_TABLE, TransitionRule)

__all__ = ["ChainParams", "PiResult", "ResourceCapError", "default_threshold",
           "compute_pi", "compute_two_neighbour_lower_bound"]

_PAD = 6
_TINY = np.finfo(float).tiny
# A level is rescaled when its largest entry leaves [_BAND_LOW, 1]
_BAND_LOW = math.exp(-16.0)


class ResourceCapError(RuntimeError):
    """Estimated working memory exceeds the configured cap."""


def default_threshold(p: float) -> int:
    """L = ceil(2 log(1/p) / p) with the natural logarithm; ValueError when
    that is not a finite number (p below about 7.8e-306)."""
    bound = 2.0 * math.log(1.0 / p) / p
    if not math.isfinite(bound):
        raise ValueError("2 log(1/p) / p is not finite")
    return math.ceil(bound)


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
    cells_swept: int = 0    # (w, h) cells the sweep filled, over all levels
    prepare_seconds: float = 0.0   # factor vectors and level storage
    sweep_seconds: float = 0.0     # the level sweep
    hits_seconds: float = 0.0      # the hit fold out of the last levels
    levels: int = 0                # levels swept, L - 2


def _factor_key(rule: TransitionRule) -> tuple:
    """(constant recipe, width terms, height terms) of a rule.  A term is
    ("f", shift) for 1 - e^{-q(n+shift)} or ("q", shift, coeff) for
    e^{-q coeff (n+shift)}, listed f-terms first, each in rule order."""
    f_shifts, q_pairs = [], []
    terms = {"a": [], "b": []}
    for dim, shift in rule.f_terms:
        if dim is None:
            f_shifts.append(shift)
        else:
            terms[dim].append(("f", shift))
    for dim, shift, coeff in rule.q_terms:
        if dim is None:
            q_pairs.append((shift, coeff))
        else:
            terms[dim].append(("q", shift, coeff))
    return ((rule.n_logp, rule.log4m3p, tuple(f_shifts), tuple(q_pairs)),
            tuple(terms["a"]), tuple(terms["b"]))


def _coarsest_lumping(states: Sequence[str], moves: Sequence[tuple]):
    """The blocks of the coarsest partition of states, finer than RANK's,
    in which all states of a block have the same multiset of (block of
    dst, dw, dh, factor kind) over their moves, (src, dst, dw, dh, kind)
    per table rule with kind an int naming the rule's factor key.  Each
    state of a block then moves into each block at each (dw, dh) with the
    same probability, at every (w, h) and p, so the chain on
    (w, h, block) is a strong lumping of the chain on (w, h, state)
    (Kemeny & Snell, Finite Markov Chains, 1960, 6.3) and has the same
    hit probabilities.  Found by partition refinement: split every block
    by that multiset until nothing splits."""
    out = {s: [] for s in states}
    for src, *move in moves:
        out[src].append(move)
    block, count = RANK, len({RANK[s] for s in states})
    while True:
        ids = {}
        split = {s: ids.setdefault((block[s], tuple(sorted(
            (block[dst], dw, dh, kind) for dst, dw, dh, kind in out[s]))),
            len(ids)) for s in states}
        if len(ids) == count:
            break
        block, count = split, len(ids)
    blocks = {}
    for s in states:
        blocks.setdefault(block[s], []).append(s)
    return tuple(tuple(members) for members in blocks.values())


class _Plan:
    """The p-independent part of one table's sweep, on the table's
    coarsest strong lumping.

    blocks: the lumping's classes of frame states, each in state order,
    ordered by their first state, which stands for the block.  rows: the
    stored blocks, those some moving rule leaves, in state order.  lumped:
    (member rules, factor index) per edge of the quotient; the members are
    the moving rules (all but the absorbing self-loop) out of the block's
    first state into one block at one (dw, dh) with one factor key, in
    table order, and the edge's probability is the sum of theirs.
    factors: the distinct (multiplicity, factor key); terms: the distinct
    terms.  An edge is (dphi, source row, dw, dh, factor index).  into:
    (target row, edges) per stored row in stage (rank) order, the edges in
    canonical order: source phi ascending (dphi descending), source w
    ascending (dw descending), source state order.  crossing: the edges
    that raise phi, in hit-summation order (source state, table order),
    whether or not their target row is stored.
    """

    def __init__(self, table: Sequence[TransitionRule], states: Sequence[str]):
        order = {s: i for i, s in enumerate(states)}
        keys = [_factor_key(r) for r in table]
        kinds = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        moves = [(r.src, r.dst, r.dw, r.dh, kinds[key])
                 for r, key in zip(table, keys)]
        self.blocks = _coarsest_lumping(states, moves)
        name = {s: block[0] for block in self.blocks for s in block}
        merged = {}     # the quotient's edges, each with its member rules
        for r, (src, dst, dw, dh, kind) in zip(table, moves):
            if name[src] == src and not (src == dst and dw + dh == 0):
                merged.setdefault((src, name[dst], dw, dh, kind),
                                  []).append(r)
        sources = {src for src, *_ in merged}
        self.rows = tuple(s for s in states if s in sources)
        row = {s: i for i, s in enumerate(self.rows)}
        self.seed_row = row["0"]
        self.max_dphi = max(dw + dh for _, _, dw, dh, _ in merged)
        self.max_dw = max(dw for _, _, dw, _, _ in merged)
        index = {}
        self.lumped = tuple(
            (tuple(rules), index.setdefault((len(rules), kind), len(index)))
            for (*_, kind), rules in merged.items())
        key_of = list(kinds)
        self.factors = tuple((mult, key_of[kind]) for mult, kind in index)
        self.terms = tuple(dict.fromkeys(
            term for _, (_, a_terms, b_terms) in self.factors
            for term in a_terms + b_terms))
        edges = [(dw + dh, row[src], dw, dh, fi)
                 for (src, _, dw, dh, _), (_, fi) in zip(merged, self.lumped)]
        srcs = [order[src] for src, *_ in merged]
        dsts = [dst for _, dst, *_ in merged]
        canonical = sorted(range(len(edges)), key=lambda i: (
            -edges[i][0], -edges[i][2], srcs[i]))
        self.into = tuple(
            (row[t], tuple(edges[i] for i in canonical if dsts[i] == t))
            for t in sorted(self.rows, key=RANK.__getitem__))
        self.crossing = tuple(edges[i] for i in sorted(
            (i for i, e in enumerate(edges) if e[0] > 0),
            key=srcs.__getitem__))


_FROBOSE_PLAN = _Plan(FROBOSE_TABLE, FROBOSE_STATES)
_TWO_NEIGHBOUR_PLAN = _Plan(TWO_NEIGHBOUR_TABLE, TWO_NEIGHBOUR_STATES)


def _factor_vectors(plan: _Plan, params: ModelParams, N: int):
    """(a, b_rev) per factor of the plan over n = -_PAD .. N - _PAD - 1:
    a[w + _PAD] * b_rev[N - 1 - (h + _PAD)] is the rule's probability at
    source (w, h), and a factor the rule does not depend on is None.
    Dummies (1) at non-positive arguments are harmless because those
    positions only ever meet zero source entries."""
    p, q = params.p, params.q
    n = np.arange(-_PAD, N - _PAD, dtype=float)
    terms = {}
    for term in plan.terms:
        if term[0] == "f":
            arg = (n + term[1]) * q
            terms[term] = np.where(arg > 0.0, -np.expm1(-np.maximum(arg, q)),
                                   1.0)
        else:
            terms[term] = np.exp(-q * term[2] * np.maximum(n + term[1], 0.0))

    def product(keys):
        if not keys:
            return None
        out = terms[keys[0]]
        for key in keys[1:]:
            out = out * terms[key]
        return out

    factors = []
    for mult, ((n_logp, log4m3p, f_shifts, q_pairs), a_keys,
               b_keys) in plan.factors:
        const = mult * p ** n_logp
        if log4m3p:
            const *= 4.0 - 3.0 * p
        for shift in f_shifts:
            const *= -math.expm1(-q * shift)
        for shift, coeff in q_pairs:
            const *= math.exp(-q * coeff * shift)
        a, b = product(a_keys), product(b_keys)
        if a is None and b is not None:
            factors.append((None, b[::-1] * const))
            continue
        if a is None:
            a = np.full(N, const)
        elif const != 1.0:
            a = a * const
        factors.append((a, None if b is None else b[::-1].copy()))
    return factors


class _Engine:
    """Single-use DP state for one plan at one parameter."""

    def __init__(self, plan: _Plan, params: ModelParams, threshold: int,
                 memory_cap_bytes: int):
        self.plan = plan
        self.L = threshold
        self.window = plan.max_dphi + 1
        self.N = self.L + 2 * _PAD + 4       # width-axis length, index = w + _PAD
        est = self.window * len(plan.rows) * self.N * 8
        if est > memory_cap_bytes:
            raise ResourceCapError(
                f"estimated {est} bytes of level storage exceeds cap "
                f"{memory_cap_bytes}")
        factors = _factor_vectors(plan, params, self.N)
        self._into = [(t, [e[:4] + factors[e[4]] for e in edges])
                      for t, edges in plan.into]
        self._crossing = [e[:4] + factors[e[4]] for e in plan.crossing]
        self._levels = np.zeros((self.window, len(plan.rows), self.N))
        self._rows = [list(level) for level in self._levels]  # 1-D row views
        self._tmp = np.empty(self.N)
        self._los, self._his = [1] * self.window, [1] * self.window
        self.scale = 0.0    # log of the scale every level in the ring shares
        self.cells = 0

    # -- per-level kernel -----------------------------------------------------
    def _fill(self, phi: int, lo: int, hi: int, into):
        """Flow along the edges of into into target widths [lo, hi) of
        level phi.  The first edge into a row overwrites [lo, hi), so those
        entries are not cleared: a slot is fresh (zeros) until
        phi = 2 + window, and below phi = 1 + window into holds only the
        edges out of levels 2 .. phi, so none overwrites the seed; from
        there on every edge has a source, so every stored row with an
        incoming edge is overwritten.  sweep() clears the slot outside
        [lo, hi)."""
        rows, window = self._rows, self.window
        mul, add = np.multiply, np.add     # positional out: cheaper calls
        cur = rows[phi % window]
        src = [rows[(phi - d) % window] for d in range(window)]
        cnt = hi - lo
        tmp = self._tmp[:cnt]
        # an edge reads source widths from la - dw and its reversed height
        # factor from lb + dh, where the source height is phi - dphi - w + dw
        la = lo + _PAD
        lb = self.N - 1 - _PAD - phi + lo
        for t, edges in into:
            row = cur[t][la:la + cnt]
            out = row           # the first edge writes the row directly
            for dphi, s, dw, dh, a, b_rev in edges:
                s0 = la - dw
                vals = src[dphi][s][s0:s0 + cnt]
                if a is None:
                    r0 = lb + dh
                    mul(vals, b_rev[r0:r0 + cnt], out)
                else:
                    mul(vals, a[s0:s0 + cnt], out)
                    if b_rev is not None:
                        r0 = lb + dh
                        mul(out, b_rev[r0:r0 + cnt], out)
                if out is tmp:
                    add(row, tmp, row)
                out = tmp

    # -- main loop ------------------------------------------------------------
    def sweep(self):
        """Fill levels 2 .. L - 1 into the ring."""
        L, window = self.L, self.window
        levels, los, his = self._levels, self._los, self._his
        max_dw = self.plan.max_dw
        for phi in range(2, L):
            slot = phi % window
            cur = levels[slot]
            # fill the union of the source levels' ranges shifted by
            # 0 .. max dw (the other slots hold the sources, or are fresh
            # with an empty range; this slot's previous level is marked
            # empty), and clear what that level left outside it
            old_lo, old_hi = los[slot], his[slot]
            los[slot], his[slot] = L, 0
            lo, hi = min(los), min(phi, max(his) + max_dw)
            if old_lo < lo:
                cur[:, old_lo + _PAD:lo + _PAD] = 0.0
            if hi < old_hi:
                cur[:, hi + _PAD:old_hi + _PAD] = 0.0
            if phi == 2:
                cur[self.plan.seed_row, 1 + _PAD] = 1.0
            if phi <= window:
                # no level lies below the seed: skip the edges out of
                # those slots (which would only add zeros), so that none
                # overwrites the seed
                into = [(t, [e for e in edges if e[0] <= phi - 2])
                        for t, edges in self._into]
            else:
                into = self._into
            self._fill(phi, lo, hi, into)
            self.cells += hi - lo
            live = cur[:, lo + _PAD:hi + _PAD]
            colmax = live.max(axis=0)
            top = colmax.max()
            if top > 1.0 or 0.0 < top < _BAND_LOW:
                inv = 1.0 / top
                live *= inv
                colmax *= inv
                self.scale -= math.log(inv)     # the divisor actually applied
                # and so are the levels that later levels still read, so
                # the ring keeps one scale
                for d in range(1, window - 1):
                    s = (phi - d) % window
                    held = levels[s][:, los[s] + _PAD:his[s] + _PAD]
                    held *= inv
                    np.copyto(held, 0.0, where=held < _TINY)
            np.copyto(live, 0.0, where=live < _TINY)
            # the surviving columns, found by a scan from both ends: the
            # flushed tails are a few columns, and a boolean temporary of a
            # new length every level would grow numpy's small-buffer cache
            a, b = 0, hi - lo
            while a < b and colmax[a] < _TINY:
                a += 1
            while b > a and colmax[b - 1] < _TINY:
                b -= 1
            los[slot], his[slot] = lo + a, lo + b

    def hits(self):
        """Returns (log hit prob exact, log hit prob at-least).

        phi only increases, so every path leaves the levels below L
        exactly once, along a crossing edge into a level t in
        L .. L+max_dphi-1, an exact hit when t = L.  The flow along an edge
        out of a stored level is one dot product over the live widths of
        its source row, taken in ascending source phi and, within a level,
        in the plan's crossing order; the levels share one scale, so the
        flows are summed once."""
        L, N, window = self.L, self.N, self.window
        if L == 2:
            return 0.0, 0.0
        on_L, past_L = [], []
        for sphi in range(max(2, L - self.plan.max_dphi), L):
            slot = sphi % window
            rows, lo = self._rows[slot], self._los[slot]
            cnt = self._his[slot] - lo
            la, lb = lo + _PAD, N - 1 - _PAD - sphi + lo
            for dphi, s, _, _, a, b_rev in self._crossing:
                if sphi + dphi < L:
                    continue
                vals = rows[s][la:la + cnt]
                if a is None:
                    flow = vals.dot(b_rev[lb:lb + cnt])
                elif b_rev is None:
                    flow = vals.dot(a[la:la + cnt])
                else:
                    flow = (vals * a[la:la + cnt]).dot(b_rev[lb:lb + cnt])
                (on_L if sphi + dphi == L else past_L).append(flow)
        return (_log_scaled(math.fsum(on_L), self.scale),
                _log_scaled(math.fsum(on_L + past_L), self.scale))


def _log_scaled(total: float, scale: float) -> float:
    """log(total * exp(scale)) for total >= 0."""
    return math.log(total) + scale if total > 0.0 else -math.inf


def _run(plan: _Plan, params: ChainParams, model_name: str,
         memory_cap_bytes: int = 8 << 30) -> PiResult:
    t0 = time.perf_counter()
    eng = _Engine(plan, params.model, params.threshold, memory_cap_bytes)
    t1 = time.perf_counter()
    # every rule has a positive probability, so an overflow (the levels
    # span more than a double holds) or a NaN makes the result wrong, not
    # small; underflow stays ignored, as the flush below _TINY relies on it
    try:
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            eng.sweep()
            t2 = time.perf_counter()
            hit_exact, hit_atl = eng.hits()
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"the level scale left the double range at p={params.model.p!r}, "
            f"L={params.threshold} ({exc})") from None
    t3 = time.perf_counter()
    hit = hit_exact if params.convention == "exact" else hit_atl
    return PiResult(
        p=params.model.p, q=params.model.q, threshold=params.threshold,
        convention=params.convention, log_hit_prob=hit,
        log_pi=0.0 if hit == 0.0 else -hit / 2.0,
        wall_time_seconds=time.perf_counter() - t0, model=model_name,
        cells_swept=eng.cells, prepare_seconds=t1 - t0,
        sweep_seconds=t2 - t1, hits_seconds=t3 - t2,
        levels=params.threshold - 2,
    )


def compute_pi(params: ChainParams, threads: int = 1,
               memory_cap_bytes: int = 8 << 30) -> PiResult:
    """Growth scale of the local Frobose model.

    log_pi = -log P(chain from (1,1,state 0) hits semi-perimeter L) / 2,
    where the hit is exact or at-least per the convention.  The sweep runs
    on one thread and is deterministic to the bit; ``threads`` is accepted
    for callers that pass it and is ignored.
    """
    return _run(_FROBOSE_PLAN, params, "frobose", memory_cap_bytes)


def compute_two_neighbour_lower_bound(params: ChainParams) -> PiResult:
    """Same computation over the published two-neighbour rows.

    The published table is sub-stochastic (it is an excerpt), so the hit
    probability is a lower bound and the returned log_pi an upper bound;
    this makes no claim to equal the true two-neighbour growth scale.  The
    sweep is compute_pi's, on one thread and deterministic to the bit.
    """
    return _run(_TWO_NEIGHBOUR_PLAN, params, "two-neighbour-lower-bound")
