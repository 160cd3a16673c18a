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
into each target row in canonical order, the crossing edges, the terms
each row's moving edges share and the gauge below.  A row that no moving
rule leaves (Frobose 4; two-neighbour 1'', 2'' and 4) is never read, so
it is not stored, filled, searched for the column maxima or flushed; the
level storage and the ResourceCapError estimate count only the stored
rows.  Frobose stores 5 rows with 17 edges into them (13 crossing),
against 7, 26 and 20 unlumped; the two-neighbour plan stores 6 rows with
41 edges.

A rule's probability at source (w, h) is a constant (a monomial in p,
4 - 3p, e^{-q} and small integers) times a few terms in one integer
argument n, w or h: Frobose uses two, 1 - e^{-qn} and e^{-qn}, and the
two-neighbour excerpt about ten.  The moving edges out of a row often
share terms, f_s: every moving Frobose rule carries 1 - e^{-q side}, the
chance that the side buffer holds an infection; of the two-neighbour
rows only 0 shares one.  So a level's rows are filled as X_s = kappa_s F_s,
F the probability mass, and once the level is filled each row is
converted in place to its gauged growth mass G_s = nu_s f_s X_s, which
the later levels read.  nu_s is the constant of the row's self-loop and
kappa_s a per-row gauge, set at import by one walk from the seed: each
edge whose constant is a bare monomial asks kappa_t / kappa_s to equal
it, and the walk meets every ask that reaches a row it has not yet set,
so those edge constants become exactly 1.  A moving edge s -> t with
probability c f_s r then adds (c kappa_t / (nu_s kappa_s)) r G_s into
X_t: for Frobose 11 of the 13 moving edges become plain shifted adds of
a stored row, 3 to 1'' keeps the scalar 1/2 and 3 to 0 the scalar
(4 - 3p) e^q / 2.  Rank-up edges
read the current level before its conversion, with the ratio
kappa_t / kappa_s in their vector.  A Frobose level takes 23 ufunc calls
(18 for the edges, 5 conversions) where multiplying every edge by a
factor vector took 29.  A call computes each distinct term once, over
all n, and each factor as its constant times its residual terms, the
constant folded into the width vector, or into the height vector when
the factor does not depend on the width; height vectors are stored
reversed, so every edge reads contiguous slices.  kappa_s grows like
p^depth (2 p^3 e^q for Frobose row 3), so where some kappa_s or
nu_s kappa_s leaves [2^-100, 2^100] (Frobose: p below about 7e-11) the
call uses kappa = nu = 1 instead; the rows are still converted, and
every constant stays apart from the terms, so none underflows with them.

Probabilities fall as low as exp(-1e5), far below the smallest double, so
levels are stored scaled, as the scaled HMM forward algorithm stores its
columns (Rabiner, Proc. IEEE 1989), but every level in the ring shares
one scale, whose logarithm is kept beside the ring.  A level's gauged
rows G are divided by their largest entry only when that entry leaves
the band [e^-16, 1], and the levels that later levels still read are
divided (and flushed) with it, so an edge never multiplies by a ratio of
scales.

Each ring slot records the contiguous width range [lo, hi) that survived
its flush, and a level is filled only over the union of its sources'
ranges shifted by 0 .. max dw, clipped to [1, phi); what the slot's
previous level left outside that range is cleared first.  The column
maxima of G after the fill give both the level's largest entry and its
range.  The sweep fills 80% of the (w, h) cells at p = 2^-8 and 70% at
p = 2^-9 (PiResult.cells_swept); a skipped cell would only sum zeros.

Entries of G below the smallest normal double are flushed to zero every
level, which also keeps slow subnormal numbers out of the sweep; as a
level's largest entry lies in [e^-16, 1], a flushed entry is at most
about e^-692 below it.  Counted over all levels as the share of each
level's live-window entries that lie below the smallest normal double
after its fill, the sweep flushes 0.34% at p = 2^-8 and 0.33% at
p = 2^-9, and log_pi stayed within 1.1e-13 relative of a log-domain
sweep that flushes nothing (k = 2..9).  At long thresholds about half
flush (46% at p = 0.5, L = 2000; 51% at p = 0.9, L = 800), and
log_hit_prob stayed within 4e-14 absolute of that sweep.  The flushed
mass is measured, not bounded.

One sweep fills each level on one thread, and the edge vectors are added
in a fixed canonical order (source phi ascending, source width ascending,
source state order; where a row's first edge is a plain add, it trades
places with the second, which leaves their sum unchanged), so the result
is bit-identical from run to run.  The hit probabilities come from the
crossing edges out of the last max-jump levels: the flow along an edge
is its constant times the sum of its source row of G over the live
widths, or, where residual terms are left (the two-neighbour excerpt),
one dot product with them; the flows are summed at once, as those
levels share the ring's scale.  The Frobose fold takes no dot product,
so BLAS starts no threads there.
"""

from __future__ import annotations

import math
import time
from collections import Counter
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
# The gauge is used only while its row constants lie within 2^+-_GAUGE_BITS
_GAUGE_BITS = 100
_LOG2 = math.log(2.0)


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


# A constant of the tables is a monomial: a product of powers of the bases
# "p", "4-3p" (4 - 3p), "e^-q", "f<s>" (1 - e^{-qs}, s a fixed integer)
# and "<n>" (the integer n, the number of rules a lumped edge merges).  It
# is kept exact, as ((base, power), ...) in base order, so that the gauge
# knows which edge constants it turns into exactly 1.
_UNIT = ()


def _monomial(powers: dict) -> tuple:
    return tuple(sorted((base, e) for base, e in powers.items() if e))


def _times(x: tuple, y: tuple, sign: int = 1) -> tuple:
    """x * y, or x / y with sign -1."""
    if not y:
        return x
    powers = dict(x)
    for base, e in y:
        powers[base] = powers.get(base, 0) + sign * e
    return _monomial(powers)


def _factor_key(rule: TransitionRule) -> tuple:
    """(constant, width terms, height terms) of a rule.  The constant is a
    monomial; a term is ("f", shift) for 1 - e^{-q(n+shift)} or
    ("q", shift, coeff) for e^{-q coeff (n+shift)}, listed f-terms first,
    each in rule order."""
    powers = {"p": rule.n_logp, "4-3p": int(rule.log4m3p)}
    terms = {"a": [], "b": []}
    for dim, shift in rule.f_terms:
        if dim is None:
            powers[f"f{shift}"] = powers.get(f"f{shift}", 0) + 1
        else:
            terms[dim].append(("f", shift))
    for dim, shift, coeff in rule.q_terms:
        if dim is None:
            powers["e^-q"] = powers.get("e^-q", 0) + coeff * shift
        else:
            terms[dim].append(("q", shift, coeff))
    return _monomial(powers), tuple(terms["a"]), tuple(terms["b"])


def _base(name: str, params: ModelParams) -> float:
    if name.isdigit():
        return float(name)
    if name == "p":
        return params.p
    if name == "4-3p":
        return 4.0 - 3.0 * params.p
    if name == "e^-q":
        return math.exp(-params.q)
    return -math.expm1(-params.q * int(name[1:]))


def _value(mono: tuple, bases: dict) -> float:
    """The monomial at the base values bases."""
    out = 1.0
    for base, e in mono:
        out *= bases[base] ** e
    return out


def _shared(term_lists: list) -> tuple:
    """The terms that every list holds, as often as each holds them, in
    the order of the first list."""
    if not term_lists:
        return ()
    common = Counter(term_lists[0])
    for terms in term_lists[1:]:
        common &= Counter(terms)
    return tuple(common.elements())


def _without(terms: tuple, shared: tuple) -> tuple:
    """terms less one occurrence of each shared term, in order."""
    left = list(terms)
    for term in shared:
        left.remove(term)
    return tuple(left)


def _walk_gauge(n_rows: int, seed: int, bare) -> list:
    """kappa per row, the monomial gauge that a walk from the seed along
    the asks of bare sets.  An edge (s, t, r) asks kappa[t] / kappa[s] == r
    and is a plain add when it meets it.  kappa is 1 at the seed; each ask
    in edge order that joins a row with a kappa to one without sets the
    other row's kappa to meet it, until no ask sets one; then the first
    row still unset gets kappa 1 and the walk goes on from there.  Any
    kappa is a valid gauge, so only the count of plain edges rests on the
    order of the walk."""
    kappa = [None] * n_rows
    kappa[seed] = _UNIT
    while None in kappa:
        unset = kappa.count(None)
        for s, t, r in bare:
            if kappa[t] is None and kappa[s] is not None:
                kappa[t] = _times(kappa[s], r)
            elif kappa[s] is None and kappa[t] is not None:
                kappa[s] = _times(kappa[t], r, -1)
        if kappa.count(None) == unset:
            kappa[kappa.index(None)] = _UNIT
    return kappa


class _Gauge:
    """The per-row constants of one way to store a plan's levels, and the
    edges, conversions and hit flows they leave.

    A level's rows are filled as X_s = kappa_s F_s, F the probability
    mass, and, once the level is filled, converted in place to the
    gauged growth mass G_s = nu_s f_s X_s, f_s the product of the terms
    that all moving rules out of row s share (the row is not converted
    when it has none, and then nu_s = 1).  A moving edge s -> t with
    probability c f_s r (r its residual terms) then adds
    (c kappa_t / (nu_s kappa_s)) r G_s into X_t, and a rank-up edge adds
    (c kappa_t / kappa_s) r X_s from the same level, before conversion.
    An edge whose factor is exactly 1, with no residual, is a plain
    shifted add.  The flow of a crossing edge is (c / (nu_s kappa_s))
    times the sum of r G_s.

    factors: the distinct (monomial, width terms, height terms).  edges:
    (dphi, source row, dw, dh, factor index) per lumped edge of the plan
    into a stored row, else None.  stages[m]: (target row, pair, edge
    indices) per stored row in stage order, over the edges with
    dphi <= m, in the plan's canonical order, except that where a row's
    first two edges are plain shifted adds, pair holds their (dphi,
    source row, dw), for one add that writes both, and where only the
    first is plain, it swaps places with the second (which leaves their
    sum unchanged), so that the row's first write is a multiply; pair is
    None otherwise.  stages[m] is all that has a source at phi = m + 2.
    convert: (row, factor index) per converted row.  crossing:
    (dphi, source row, factor index) per crossing edge, in the plan's
    crossing order.  into_factor and hit_factor: the factor index per
    lumped edge of the plan, of its flow into the target row and of its
    crossing flow, or None.  bases: the bases that the factors name."""

    def __init__(self, plan: "_Plan", kappa: Sequence[tuple],
                 nu: Sequence[tuple]):
        self.kappa, self.nu = tuple(kappa), tuple(nu)
        index = {}

        def factor(*key):
            return index.setdefault(key, len(index))

        self.into_factor, self.hit_factor = [], []
        for _, dphi, s, t, _, _, const, a, b in plan.lumped:
            mu = _times(nu[s], kappa[s]) if dphi else kappa[s]
            self.into_factor.append(None if t is None else factor(
                _times(_times(const, kappa[t]), mu, -1), a, b))
            self.hit_factor.append(factor(_times(const, mu, -1), a, b)
                                   if dphi else None)
        self.convert = tuple((s, factor(nu[s], *plan.shared[s]))
                             for s in range(len(plan.rows))
                             if any(plan.shared[s]))
        self.factors = tuple(index)
        self.terms = tuple(dict.fromkeys(
            term for _, a_terms, b_terms in self.factors
            for term in a_terms + b_terms))

        self.edges = tuple(None if fi is None else e[1:3] + e[4:6] + (fi,)
                           for e, fi in zip(plan.lumped, self.into_factor))
        self.crossing = tuple((plan.lumped[i][1], plan.lumped[i][2],
                               self.hit_factor[i]) for i in plan.crossing)
        plain = [key == (_UNIT, (), ()) for key in self.factors]

        def stage(most):
            out = []
            for t, edges in plan.into:
                edges = [i for i in edges if plan.lumped[i][1] <= most]
                pair = None
                if len(edges) > 1 and plain[self.into_factor[edges[0]]]:
                    if plain[self.into_factor[edges[1]]]:
                        pair = tuple(self.edges[i][:3] for i in edges[:2])
                        del edges[:2]
                    else:
                        edges[:2] = edges[1::-1]
                out.append((t, pair, tuple(edges)))
            return tuple(out)

        self.stages = tuple(stage(most) for most in range(plan.max_dphi + 1))
        self.bases = {base for mono, _, _ in self.factors for base, _ in mono}


class _Plan:
    """The p-independent part of one table's sweep, on the table's
    coarsest strong lumping, with the gauge its rows are stored in.

    blocks: the lumping's classes of frame states, each in state order,
    ordered by their first state, which stands for the block.  rows: the
    stored blocks, those some moving rule leaves, in state order.  lumped:
    (member rules, dphi, source row, target row or None, dw, dh, constant,
    width terms, height terms) per edge of the quotient; the members are
    the moving rules (all but the absorbing self-loop) out of the block's
    first state into one block at one (dw, dh) with one factor key, in
    table order, and the edge's probability, the sum of theirs, is the
    constant (a monomial) times the terms and, when dphi > 0, f_s.
    shared: per row, the (width, height) terms f_s that all its edges
    with dphi > 0 share, which their own terms leave out.  into:
    (target row, lumped edge indices) per stored row in stage (rank)
    order, in canonical order: source phi ascending (dphi descending),
    source w ascending (dw descending), source state order.  crossing: the
    indices of the edges that raise phi, in hit-summation order (source
    state, table order), whether or not their target row is stored.

    gauged: the _Gauge with nu_s the constant of row s's first self-loop
    that the shared terms leave bare, and kappa the gauge that a walk from
    the seed along the bare edges sets (_walk_gauge); ungauged:
    kappa = nu = 1, for the parameters at which the gauged constants leave
    2^+-_GAUGE_BITS (gauge_for).  bounds: the distinct kappa_s and
    nu_s kappa_s that gauge_for checks.
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
        key_of = list(kinds)
        lumped = []
        for (src, dst, dw, dh, kind), rules in merged.items():
            const, a, b = key_of[kind]
            if len(rules) > 1:
                const = _times(const, ((str(len(rules)), 1),))
            lumped.append((tuple(rules), dw + dh, row[src], row.get(dst),
                           dw, dh, const, a, b))
        self.shared = tuple(
            tuple(_shared([e[dim] for e in lumped if e[2] == s and e[1] > 0])
                  for dim in (7, 8))
            for s in range(len(self.rows)))
        self.lumped = tuple(
            e[:7] + tuple(_without(e[dim], self.shared[e[2]][dim - 7])
                          if e[1] else e[dim] for dim in (7, 8))
            for e in lumped)
        srcs = [order[src] for src, *_ in merged]
        dsts = [dst for _, dst, *_ in merged]
        canonical = sorted(range(len(lumped)), key=lambda i: (
            -lumped[i][1], -lumped[i][4], srcs[i]))
        self.into = tuple(
            (row[t], tuple(i for i in canonical if dsts[i] == t))
            for t in sorted(self.rows, key=RANK.__getitem__))
        self.crossing = tuple(sorted(
            (i for i, e in enumerate(lumped) if e[1] > 0),
            key=srcs.__getitem__))

        unit = [_UNIT] * len(self.rows)
        nu = list(unit)     # the first bare self-loop in table order sets nu
        for _, dphi, s, t, _, _, const, a, b in reversed(self.lumped):
            if s == t and dphi and not a + b and any(self.shared[s]):
                nu[s] = const
        # the edges a gauge can make plain, with the kappa_t / kappa_s
        # that does it; self-loops are plain or not whatever kappa is
        bare = [(s, t, _times(nu[s], const, -1) if dphi
                 else _times(_UNIT, const, -1))
                for _, dphi, s, t, _, _, const, a, b in self.lumped
                if t is not None and not a + b]
        kappa = _walk_gauge(len(self.rows), self.seed_row, bare)
        self.gauged = _Gauge(self, kappa, nu)
        self.ungauged = (self.gauged if set(kappa + nu) == {_UNIT}
                         else _Gauge(self, unit, unit))
        self.bounds = set(kappa + list(map(_times, nu, kappa)))

    def gauge_for(self, params: ModelParams) -> _Gauge:
        """gauged when every kappa_s and nu_s kappa_s lies within
        2^+-_GAUGE_BITS at params, else ungauged."""
        for mono in self.bounds:
            log = sum(e * math.log(_base(base, params)) for base, e in mono)
            if abs(log) > _GAUGE_BITS * _LOG2:
                return self.ungauged
        return self.gauged


_FROBOSE_PLAN = _Plan(FROBOSE_TABLE, FROBOSE_STATES)
_TWO_NEIGHBOUR_PLAN = _Plan(TWO_NEIGHBOUR_TABLE, TWO_NEIGHBOUR_STATES)


def _factor_vectors(gauge: _Gauge, params: ModelParams, N: int):
    """(w, a, b_rev) per factor of the gauge over n = -_PAD .. N - _PAD - 1:
    w * a[w + _PAD] * b_rev[N - 1 - (h + _PAD)] is the factor at source
    (w, h), where a factor the product does not depend on is None and w
    is folded into a, or into b_rev when a is None.  w is None for a
    factor that is exactly 1.  Dummies (1) at non-positive arguments are
    harmless because those positions only ever meet zero source entries."""
    q = params.q
    bases = {base: _base(base, params) for base in gauge.bases}
    n = np.arange(-_PAD, N - _PAD, dtype=float)
    terms = {}
    for term in gauge.terms:
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
    for mono, a_keys, b_keys in gauge.factors:
        if not a_keys and not b_keys:
            factors.append((None if mono == _UNIT else _value(mono, bases),
                            None, None))
            continue
        const = _value(mono, bases)
        a, b = product(a_keys), product(b_keys)
        if a is None:
            factors.append((None, None, b[::-1] * const))
            continue
        if const != 1.0:
            a = a * const
        factors.append((None, a, None if b is None else b[::-1].copy()))
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
            # Decimal, as an explicit threshold can put est past the
            # double range; imported here to keep it off the import path
            from decimal import Decimal
            raise ResourceCapError(
                f"estimated {Decimal(est):.3g} bytes of level storage "
                f"exceeds cap {Decimal(memory_cap_bytes):.3g}")
        gauge = plan.gauge_for(params)
        factors = _factor_vectors(gauge, params, self.N)

        self._stages = gauge.stages
        self._edges = [None if e is None else e[:4] + factors[e[4]]
                       for e in gauge.edges]
        # the conversions by width and by height vector (a row whose
        # shared terms hold both is in both lists)
        self._convert_a = [(t, factors[fi][1]) for t, fi in gauge.convert
                           if factors[fi][1] is not None]
        self._convert_b = [(t, factors[fi][2]) for t, fi in gauge.convert
                           if factors[fi][2] is not None]
        self._crossing = [e[:2] + factors[e[2]] for e in gauge.crossing]
        self._levels = np.zeros((self.window, len(plan.rows), self.N))
        self._rows = [list(level) for level in self._levels]  # 1-D row views
        self._tmp = np.empty(self.N)
        self._los, self._his = [1] * self.window, [1] * self.window
        self.scale = 0.0    # log of the scale every level in the ring shares
        self.cells = 0

    def _stage(self, most: int) -> list:
        """(target row, pair, edges) per stored row, over the edges with
        dphi <= most (_Gauge.stages)."""
        edges = self._edges
        return [(t, pair, [edges[i] for i in order])
                for t, pair, order in self._stages[most]]

    # -- per-level kernel -----------------------------------------------------
    def _fill(self, phi: int, lo: int, hi: int, into):
        """Flow along the edges of into into target widths [lo, hi) of
        level phi, then convert its rows to gauged growth masses, now that
        the rank-up edges have read them.  The first write into a row
        overwrites [lo, hi), so those entries are not cleared: a slot is
        fresh (zeros) until phi = 2 + window, and below phi = 1 + window
        into holds only the edges out of levels 2 .. phi, so none
        overwrites the seed; from there on every edge has a source, so
        every stored row with an incoming edge is overwritten.  sweep()
        clears the slot outside [lo, hi)."""
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
        for t, pair, edges in into:
            row = cur[t][la:la + cnt]
            out = row           # the first write goes to the row directly
            if pair:
                (d0, s0, w0), (d1, s1, w1) = pair
                add(src[d0][s0][la - w0:la - w0 + cnt],
                    src[d1][s1][la - w1:la - w1 + cnt], row)
                out = tmp
            for dphi, s, dw, dh, w, a, b_rev in edges:
                s0 = la - dw
                vals = src[dphi][s][s0:s0 + cnt]
                if a is not None:
                    mul(vals, a[s0:s0 + cnt], out)
                    if b_rev is not None:
                        r0 = lb + dh
                        mul(out, b_rev[r0:r0 + cnt], out)
                elif b_rev is not None:
                    r0 = lb + dh
                    mul(vals, b_rev[r0:r0 + cnt], out)
                elif w is not None:
                    mul(vals, w, out)
                elif out is tmp:       # a plain shifted add
                    add(row, vals, row)
                    continue
                else:
                    np.copyto(row, vals)
                if out is tmp:
                    add(row, tmp, row)
                out = tmp
        for t, a in self._convert_a:
            row = cur[t][la:la + cnt]
            mul(row, a[la:la + cnt], row)
        for t, b_rev in self._convert_b:
            row = cur[t][la:la + cnt]
            mul(row, b_rev[lb:lb + cnt], row)

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
                # the seed: X = kappa F, and kappa is 1 at the seed row
                cur[self.plan.seed_row, 1 + _PAD] = 1.0
            if phi <= window + 1:
                # below phi = 1 + window no level lies below the seed:
                # skip the edges out of those slots (which would only add
                # zeros), so that none overwrites the seed; from there on
                # into holds every edge
                into = self._stage(phi - 2)
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
        out of a stored level is its constant times the sum of its source
        row over the live widths, or, where residual terms are left, one
        dot product with them, taken in ascending source phi and, within
        a level, in the plan's crossing order; the levels share one
        scale, so the flows are summed once."""
        L, N, window = self.L, self.N, self.window
        if L == 2:
            return 0.0, 0.0
        on_L, past_L = [], []
        for sphi in range(max(2, L - self.plan.max_dphi), L):
            slot = sphi % window
            rows, lo = self._rows[slot], self._los[slot]
            cnt = self._his[slot] - lo
            la, lb = lo + _PAD, N - 1 - _PAD - sphi + lo
            sums = {}      # per source row, shared by its bare edges
            for dphi, s, w, a, b_rev in self._crossing:
                if sphi + dphi < L:
                    continue
                vals = rows[s][la:la + cnt]
                if a is not None:
                    if b_rev is None:
                        flow = vals.dot(a[la:la + cnt])
                    else:
                        flow = (vals * a[la:la + cnt]).dot(b_rev[lb:lb + cnt])
                elif b_rev is not None:
                    flow = vals.dot(b_rev[lb:lb + cnt])
                else:
                    if s not in sums:
                        sums[s] = float(np.add.reduce(vals))
                    flow = sums[s] if w is None else w * sums[s]
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
