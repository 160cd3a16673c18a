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
import, into a _Plan.  A row that no moving rule leaves (Frobose 4;
two-neighbour 1'', 2'' and 4) is never read, so it is not stored, filled
or searched for the column maxima; the level storage and the
ResourceCapError estimate count only the stored rows.  A rule that
raised phi into such a row would carry mass past L that the hit fold
never reads, so _Plan refuses such a table; a rank-up into it (Frobose 3
to 4) only absorbs.  Frobose stores 5 rows with 17 edges into them (13
raise phi), against 7, 26 and 20 unlumped; the two-neighbour plan stores
6 rows with 41 edges.

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
kappa_s a per-row gauge, set at import by one walk from the seed
(_walk_gauge) that makes exactly 1 the constant of each edge whose
constant is a bare monomial and that it reaches.  A moving edge s -> t
with probability c f_s r then adds (c kappa_t / (nu_s kappa_s)) r G_s
into X_t: for Frobose 11 of the 13 moving edges become plain shifted
adds of a stored row, 3 to 1'' keeps the scalar 1/2 and 3 to 0 the
scalar (4 - 3p) e^q / 2.  Rank-up edges read the current level before
its conversion, with the ratio kappa_t / kappa_s in their vector.  A Frobose
level takes 23 ufunc calls (18 for the edges, 5 conversions), a
two-neighbour level 82.  A call evaluates each base and each power of it
once, every constant as a product of powers, and every distinct term
once, as the rows of one array over n (f-terms in one expression,
q-terms in another) and of its reversed copy.  A factor's vectors,
products of those rows with its constant folded into the width vector
(or the height vector where it has none), are rows of one stack
(_Plan.layout), the height ones reversed so every edge reads contiguous
slices; a factor with no terms is its constant.  The level base lam
below keeps all of these in the double range at tiny p.

kappa_s grows like p^depth (2 p^3 e^q for Frobose row 3), and at tiny p
a level holds about p times the mass of the one before, so one gauge
serves every p through a level base lam, set per call: level phi is
stored as lam^-(phi - 2) times its gauged mass.  Each moving edge's
constant carries lam^-dphi as a symbolic base, so the walk gives
kappa_s lam^-rank s and nu_s / lam (a Frobose deletion of n costs p^n
and raises phi by n + 1) and the same edges stay plain.  lam = 1 where
every kappa_s and nu_s kappa_s at lam = 1 lies within [2^-100, 2^100]
(Frobose: p above about 7e-11; two-neighbour: always), else lam = p.
Both evaluations of every constant are resolved at import, the second
with lam's power merged into p's (lam^-4 alone overflows where
p^3 lam^-4 does not).  The hit fold multiplies each flow into a level T
past L by lam^(T - L) and adds (L - 2) log lam, products by exactly 1
where lam = 1.  Frobose then fails only at a subnormal p, whose 1/p
overflows; the two-neighbour levels fall by about sqrt(q) per phi, which
neither base flattens, and leave the double range at p = 1e-200, L = 6.

Probabilities fall as low as exp(-1e5), far below the smallest double, so
levels are stored scaled, as the scaled HMM forward algorithm stores its
columns (Rabiner, Proc. IEEE 1989), but every level in the ring shares
one scale, whose logarithm is kept beside the ring.  A level's gauged
rows G are divided by their largest entry only when that entry leaves
the band [e^-16, 1], and the levels that later levels still read are
divided with it, so an edge never multiplies by a ratio of scales.

Each ring slot records a contiguous width range [lo, hi), and a level is
filled only over the union of its sources' ranges shifted by
0 .. max dw, clipped to [1, phi), rounded out to a block of whole
multiples of _BLOCK = 32 columns; what the slot's previous level left
outside that block is cleared first.  The column maxima of G after the
fill give both the level's largest entry and its range: the columns at
either end whose entries all lie below the smallest normal double are
dropped from the range and zeroed, so every slot is zero outside its
range, as a fill that reads a source past its range needs.  So the
block's extra columns read only zeros, and compute exact zeros.  The
sweep fills 80% of the (w, h) cells at p = 2^-8 and 70% at p = 2^-9
(PiResult.cells_swept counts [lo, hi), not the block); a skipped cell
would only sum zeros.

No entry is flushed: inside the range an entry below the smallest normal
double stays, as a subnormal or zero, and later levels read it.  Only
the dropped columns (PiResult.cells_dropped) lose mass, each entry at
most about e^-692 below the level's largest (which lies in [e^-16, 1]);
that loss is measured, not bounded.  Few kept entries are subnormal:
0.17% of the live entries at p = 2^-8, 0.27% at p = 2^-10 and 1.5% at
p = 0.5, L = 2000 (there 46% lie below the smallest normal double,
nearly all of them zeros).

One sweep fills each level on one thread, and the edge vectors are added
in a fixed canonical order (source phi ascending, source width ascending,
source state order; where a row's first edge is a plain add and its
second is not, they trade places, which leaves their sum unchanged and
makes the row's first write a multiply), so the result is bit-identical
from run to run.  A level runs one flat program, a tuple of (ufunc,
operand, operand, out) calls in that order, compiled at import per stage
and ring phase (_Plan._program) over an operand table: the views of the
ring rows and width vectors that a block reads, built once per block
position (every ~32 levels at p = 2^-9, once per call where L <= 32),
and the height vectors, which move with phi and are sliced per level.
There is no branch per edge and no other kernel.  The hit probabilities
are folded out of the last max-jump levels through the same factors,
by row sums and one einsum (_Engine.hits).
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
           "DEFAULT_MEMORY_CAP_BYTES", "compute_pi",
           "compute_two_neighbour_lower_bound"]

# A level is filled over its width range rounded out to multiples of
# _BLOCK, so the operand views of its program last as long as that block;
# _PAD covers the over-reach, up to _BLOCK - 1 columns past phi read
# through a height vector at dh <= _PAD - _BLOCK + 2 (_Plan refuses larger
# steps)
_BLOCK = 32
_PAD = _BLOCK + 4
_TINY = np.finfo(float).tiny
# A level is rescaled when its largest entry leaves [_BAND_LOW, 1]
_BAND_LOW = math.exp(-16.0)
# The level base lam is 1 while the gauge's row constants at lam = 1 lie
# within 2^+-_GAUGE_BITS, else p (_Plan.base_is_p)
_GAUGE_BITS = 100
_LOG2 = math.log(2.0)
# The level storage a call may allocate unless told otherwise, 8 GiB
DEFAULT_MEMORY_CAP_BYTES = 8 << 30


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
    level_bytes: int = 0           # bytes of the allocated level ring
    cells_dropped: int = 0  # of those, the cells the live window dropped


def _coarsest_lumping(states: Sequence[str], moves: Sequence[tuple]):
    """The blocks of the coarsest strong lumping finer than RANK's
    classes, of the moves (src, dst, dw, dh, factor key) per table rule:
    starting from RANK, split every block by its states' multisets of
    (block of dst, dw, dh, key) until nothing splits."""
    out = {s: [] for s in states}
    for src, *move in moves:
        out[src].append(move)
    block, count = RANK, len({RANK[s] for s in states})
    while True:
        ids = {}
        split = {s: ids.setdefault((block[s], tuple(sorted(
            (block[dst], dw, dh, key) for dst, dw, dh, key in out[s]))),
            len(ids)) for s in states}
        if len(ids) == count:
            break
        block, count = split, len(ids)
    blocks = {}
    for s in states:
        blocks.setdefault(block[s], []).append(s)
    return tuple(tuple(members) for members in blocks.values())


# A constant of the tables is a monomial: a product of powers of the bases
# "p", "4-3p" (4 - 3p), "e^-q", "f<s>" (1 - e^{-qs}, s a fixed integer),
# "<n>" (the integer n, the number of rules a lumped edge merges) and
# "lam" (the level base, 1 or p per call).  It is kept exact, as
# ((base, power), ...) in base order, so that the gauge knows which edge
# constants it turns into exactly 1.
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


def _put_lam(mono: tuple, lam: tuple) -> tuple:
    """mono with the level base "lam" replaced by the monomial lam."""
    powers = dict(mono)
    return _times(_monomial(dict(powers, lam=0)), lam, powers.get("lam", 0))


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


class _Plan:
    """The p-independent part of one table's sweep, on the table's
    coarsest strong lumping, with the one gauge its rows are stored in.

    blocks: the lumping's classes of frame states, each in state order,
    ordered by their first state, which stands for the block.  rows: the
    stored blocks, those some moving rule leaves, in state order.  edges:
    (dphi, source row, dw, dh, target row, factor index, member rules)
    per edge of the quotient into a stored row; the members are the
    moving rules (all but the absorbing self-loop) out of the block's
    first state into one block at one (dw, dh) with one factor key, in
    table order.  shared: per row, the (width, height) terms f_s that
    all its edges with dphi > 0 share, which their factors leave out.

    nu: per row, the constant of its first self-loop that the shared
    terms leave bare (1 where it shares none); kappa: the gauge
    (_walk_gauge).  factors: the distinct (monomial, width terms, height
    terms) of the flows into target rows and of the conversions;
    (1, (), ()) is a plain shifted add.  An edge's probability is lam^dphi
    times its flow factor times kappa_s / kappa_t and, when dphi > 0,
    nu_s f_s.  monomials[at_p]: a call's constants in their order, at
    lam = 1, or at lam = p with at_p: the factors' monomials, then
    1 / kappa_t per row, then 1; powers, products: their distinct
    (base, power), and the positions of 1 and of each one's powers among
    those, flat, and where each starts.  bases: the bases they name.
    bounds: the distinct kappa_s and nu_s kappa_s at lam = 1, which
    base_is_p checks.  stages[m]: (target row, pair,
    edge indices) per stored row in stage (rank) order, over the edges
    with dphi <= m (all that has a source at phi = m + 2), in the
    module docstring's canonical order; pair holds the (dphi, source row,
    dw) of the row's first two edges where both are plain adds, for one
    add that writes both, else None.  convert: (row, factor index) per
    converted row.

    The stacked forms a call evaluates, with no Python loop per term,
    factor or edge: n_f, shift, q_coeff: the term rows (f-terms first).
    ab_terms, ab_more, ab_const: the stack of width vectors, then height
    vectors, as the first term row each multiplies, the slice and rows of
    each further term, and the position of its constant in monomials;
    layout: per factor, the stack rows of its width and height vectors,
    or None.  bare, fold_*: the hit fold's index arrays (_Engine.hits).

    The sweep's programs (_program), over a ring of window = max_dphi + 1
    level slots: programs[phase], the full stage's calls at
    phi % window == phase; openings[m], stage m's at
    phi = m + 2 < window + 1.  A call is (ufunc, operand, operand, out),
    each operand an index into the operand table, whose keys, operands,
    are those the programs read: the constants ("c"), from fixed_at the
    views that last a block ("row", "tmp", "a"), from heights_at the
    height vectors ("b"), sliced per level.  block_spans, level_spans: per
    operand from fixed_at and from heights_at, the index of the array it
    slices among the engine's _bases, and the shift it reads at.
    """

    def __init__(self, table: Sequence[TransitionRule], states: Sequence[str]):
        moves = [(r.src, r.dst, r.dw, r.dh, _factor_key(r)) for r in table]
        self.blocks = _coarsest_lumping(states, moves)
        name = {s: block[0] for block in self.blocks for s in block}
        merged = {}     # the quotient's edges, each with its member rules
        for r, (src, dst, dw, dh, key) in zip(table, moves):
            if name[src] == src and not (src == dst and dw + dh == 0):
                merged.setdefault((src, name[dst], dw, dh, key),
                                  []).append(r)
        sources = {src for src, *_ in merged}
        self.rows = tuple(s for s in states if s in sources)
        row = {s: i for i, s in enumerate(self.rows)}
        self.seed_row = row["0"]
        # (dphi, s, dw, dh, t, members, constant, width terms, height
        # terms); self.edges keeps the first five, then the factor index
        # that the last three resolve to, then the members
        edges = []
        for (src, dst, dw, dh, (const, a, b)), rules in merged.items():
            if dst not in row:
                if dw + dh:
                    raise ValueError(f"a rule raises phi from {src} into "
                                     f"{dst}, which no moving rule leaves")
                continue
            const = _times(const, (("lam", -dw - dh),) + (
                ((str(len(rules)), 1),) if len(rules) > 1 else ()))
            edges.append((dw + dh, row[src], dw, dh, row[dst], tuple(rules),
                          const, a, b))
        self.max_dphi = max(e[0] for e in edges)
        self.max_dw = max(e[2] for e in edges)
        if self.max_dw > _PAD or max(e[3] for e in edges) > _PAD - _BLOCK + 2:
            raise ValueError("a rule's step reaches past the level padding")
        self.shared = tuple(
            tuple(_shared([e[dim] for e in edges if e[1] == s and e[0] > 0])
                  for dim in (7, 8))
            for s in range(len(self.rows)))
        edges = [e[:7] + tuple(_without(e[dim], self.shared[e[1]][dim - 7])
                               if e[0] else e[dim] for dim in (7, 8))
                 for e in edges]

        nu = [_UNIT] * len(self.rows)   # the first bare self-loop sets nu
        for dphi, s, _, _, t, _, const, a, b in reversed(edges):
            if s == t and dphi and not a + b and any(self.shared[s]):
                nu[s] = const
        # the edges the gauge can make plain, with the kappa_t / kappa_s
        # that does it; self-loops are plain or not whatever kappa is
        bare = [(s, t, _times(nu[s], const, -1) if dphi
                 else _times(_UNIT, const, -1))
                for dphi, s, _, _, t, _, const, a, b in edges if not a + b]
        kappa = _walk_gauge(len(self.rows), self.seed_row, bare)
        self.kappa, self.nu = tuple(kappa), tuple(nu)
        index = {}

        def factor(*key):
            return index.setdefault(key, len(index))

        self.edges = tuple(
            (dphi, s, dw, dh, t, factor(_times(
                _times(const, kappa[t]),
                _times(nu[s], kappa[s]) if dphi else kappa[s], -1), a, b),
             rules)
            for dphi, s, dw, dh, t, rules, const, a, b in edges)
        self.convert = tuple((s, factor(nu[s], *self.shared[s]))
                             for s in range(len(self.rows))
                             if any(self.shared[s]))
        self.factors = tuple(index)
        monomials = ([mono for mono, _, _ in self.factors]
                     + [_times(_UNIT, k, -1) for k in kappa] + [_UNIT])
        self.monomials = tuple(tuple(_put_lam(mono, lam) for mono in monomials)
                               for lam in (_UNIT, (("p", 1),)))
        self.powers = tuple(tuple(dict.fromkeys(sum(monos, ())))
                            for monos in self.monomials)
        self.products = tuple((np.array([i for mono in monos for i in (
            len(pw), *map(pw.index, mono))]), np.cumsum(
                [0] + [len(mono) + 1 for mono in monos[:-1]]))
            for monos, pw in zip(self.monomials, self.powers))
        self.bases = {base for powers in self.powers for base, _ in powers}
        self.bounds = {_put_lam(mono, _UNIT)
                       for mono in kappa + list(map(_times, nu, kappa))}
        # the terms as rows over n, f-terms first, then a row of ones: the
        # shift per term and the coefficient per q-term
        terms = sorted({t: 0 for _, a, b in self.factors for t in a + b},
                       key=lambda term: term[0] == "q")
        self.n_f = sum(term[0] == "f" for term in terms)
        self.shift, self.q_coeff = (
            np.array(column, float).reshape(-1, 1) for column in (
                [term[1] for term in terms], [t[2] for t in terms[self.n_f:]]))
        # the stack of vectors: width vectors by ascending count of terms,
        # then height vectors by descending count (the rows of ones, None,
        # have none), so those with more than c terms are one slice; each
        # as its term rows (the heights' in the reversed copy) and its
        # constant: its factor's, or the last, 1, for a height vector whose
        # factor has a width vector
        keys = {None: (_UNIT, (), ()), **dict(enumerate(self.factors))}
        stack = [(dim, i) for dim in (1, 2) for i in sorted(
            [i for i, key in enumerate(self.factors) if key[dim]] + [None],
            key=lambda i: (3 - 2 * dim) * len(keys[i][dim]))]
        vec = [[terms.index(t) + (len(terms) + 1) * (dim == 2)
                for t in keys[i][dim]] or [len(terms)] for dim, i in stack]
        self.ab_terms = np.array([r[0] for r in vec])
        self.ab_more = tuple((more[0], more[-1] + 1, np.array(
            [vec[k][c] for k in more])) for c in range(1, max(map(len, vec)))
            for more in [[k for k, r in enumerate(vec) if len(r) > c]])
        self.ab_const = np.array([
            [-1 if i is None or dim == 2 and self.factors[i][1] else i]
            for dim, i in stack])

        def at(dim, i):     # the stack row of i's vector, or of the ones
            return stack.index((dim, i) if (dim, i) in stack else (dim, None))

        self.layout = tuple(tuple(at(dim, i) if (dim, i) in stack else None
                                  for dim in (1, 2))
                            for i in range(len(self.factors)))
        # the hit fold: per j = 1 .. max_dphi the edges that cross L out of
        # level L - j (dphi >= j), as (j - 1, source row, factor, target
        # row, dphi - j, width row, height row), the bare ones (a constant
        # factor) first; of those with residual terms, their width and
        # height rows, j - 1, and per phase L % window their ring rows
        ones = (at(1, None), at(2, None))
        crossing = sorted((
            (j, s, fi, t, dphi - j - 1, at(1, fi), at(2, fi))
            for j in range(self.max_dphi) for dphi, s, _, _, t, fi, _
            in self.edges if dphi > j), key=lambda c: c[5:] != ones)
        self.bare = sum(c[5:] == ones for c in crossing)
        fold = np.array(crossing, dtype=int).reshape(-1, 7).T
        self.fold_j, self.fold_src, self.fold_fi = fold[:3, :self.bare]
        self.fold_unkappa, self.fold_k = len(self.factors) + fold[3], fold[4]
        self.fold_sums = sorted(set(self.fold_j.tolist()))
        self.fold_exact = tuple(np.flatnonzero(self.fold_k == 0).tolist())
        self.window = window = self.max_dphi + 1
        self.fold_a, self.fold_b, self.fold_h = fold[[5, 6, 0], self.bare:]
        self.fold_rows = tuple((phase - 1 - self.fold_h) % window * len(
            self.rows) + fold[1, self.bare:] for phase in range(window))
        edges = self.edges
        plain = [key == (_UNIT, (), ()) for key in self.factors]
        canonical = sorted(range(len(edges)), key=lambda i: (
            -edges[i][0], -edges[i][2], edges[i][1]))
        into = [(row[t], [i for i in canonical if edges[i][4] == row[t]])
                for t in sorted(self.rows, key=RANK.__getitem__)]

        def stage(most):
            out = []
            for t, order in into:
                order = [i for i in order if edges[i][0] <= most]
                pair = None
                if len(order) > 1 and plain[edges[order[0]][5]]:
                    if plain[edges[order[1]][5]]:
                        pair = tuple(edges[i][:3] for i in order[:2])
                        del order[:2]
                    else:
                        order[:2] = order[1::-1]
                out.append((t, pair, tuple(order)))
            return tuple(out)

        self.stages = tuple(stage(most) for most in range(self.max_dphi + 1))
        raw = [self._program(self.max_dphi, phase) for phase in range(window)]
        raw += [self._program(most, (most + 2) % window)
                for most in range(self.max_dphi)]
        kind = {"c": 0, "row": 1, "tmp": 1, "a": 1, "b": 2}
        self.operands = tuple(sorted(dict.fromkeys(
            key for prog in raw for call in prog for key in call[1:]),
            key=lambda key: kind[key[0]]))
        self.fixed_at, self.heights_at = (
            sum(kind[key[0]] < k for key in self.operands) for k in (1, 2))
        at = {key: i for i, key in enumerate(self.operands)}
        raw = [tuple((f, *map(at.get, keys)) for f, *keys in prog)
               for prog in raw]
        self.programs, self.openings = tuple(raw[:window]), tuple(raw[window:])
        # per operand past the constants, the engine's array it slices (the
        # ring's rows, slot by slot, then the stack's vectors, then tmp)
        # and the shift it reads at
        ring = window * len(self.rows)
        spans = tuple(
            (key[1] * len(self.rows) + key[2], key[3]) if key[0] == "row" else
            (ring + len(self.ab_const), 0) if key[0] == "tmp" else
            (ring + key[1], key[2]) for key in self.operands[self.fixed_at:])
        self.block_spans = spans[:self.heights_at - self.fixed_at]
        self.level_spans = spans[self.heights_at - self.fixed_at:]

    def _program(self, most: int, phase: int) -> list:
        """The calls (ufunc, operand, operand, out) that fill a level at
        phi % window == phase from the edges of stages[most] and convert
        its rows, on symbolic operands: ("row", slot, row, dw), a ring row
        read dw widths to the left; ("tmp",); ("a", stack row, dw), a width
        vector read the same way; ("b", stack row, dh), a height vector
        read dh heights up, which moves with phi; ("c", factor), the
        factor's constant.  Per target row in stage order: the first write
        overwrites the row (a pair of plain edges as one add, a plain edge
        alone as a product by its constant 1), and each later edge is
        multiplied into tmp and added, or, plain, added directly; then the
        conversions, by width vector, then by height vector."""
        mul, add = np.multiply, np.add
        tmp, out = ("tmp",), []

        def src(dphi, s, dw):
            return ("row", (phase - dphi) % self.window, s, dw)

        for t, pair, order in self.stages[most]:
            row = to = src(0, t, 0)
            if pair:
                out.append((add, src(*pair[0]), src(*pair[1]), row))
                to = tmp
            for i in order:
                dphi, s, dw, dh, _, fi, _ = self.edges[i]
                vals = src(dphi, s, dw)
                a, b = self.layout[fi]
                if a is not None:
                    out.append((mul, vals, ("a", a, dw), to))
                    if b is not None:
                        out.append((mul, to, ("b", b, dh), to))
                elif b is not None:
                    out.append((mul, vals, ("b", b, dh), to))
                elif to == tmp and self.factors[fi] == (_UNIT, (), ()):
                    out.append((add, row, vals, row))    # a plain shifted add
                    continue
                else:       # a scalar, or a first write that copies (x 1)
                    out.append((mul, vals, ("c", fi), to))
                if to == tmp:
                    out.append((add, row, tmp, row))
                to = tmp
        for dim, name in enumerate("ab"):
            for t, fi in self.convert:
                if self.layout[fi][dim] is not None:
                    row = src(0, t, 0)
                    out.append((mul, row, (name, self.layout[fi][dim], 0), row))
        return out

    def base_is_p(self, bases: dict) -> bool:
        """Whether a call at the base values bases stores its levels over
        lam = p: where some kappa_s or nu_s kappa_s at lam = 1 leaves
        2^+-_GAUGE_BITS (Frobose: p below about 7e-11), else lam = 1."""
        logs = {base: math.log(value) for base, value in bases.items()}
        return any(abs(sum(e * logs[base] for base, e in mono))
                   > _GAUGE_BITS * _LOG2 for mono in self.bounds)


_FROBOSE_PLAN = _Plan(FROBOSE_TABLE, FROBOSE_STATES)
_TWO_NEIGHBOUR_PLAN = _Plan(TWO_NEIGHBOUR_TABLE, TWO_NEIGHBOUR_STATES)


def _factor_vectors(plan: _Plan, params: ModelParams, bases: dict, N: int,
                    at_p: bool):
    """(consts, vectors) of the plan at the base values bases, at lam = p
    if at_p else at lam = 1.

    consts: plan.monomials[at_p], each its powers' product from 1, in order.
    vectors: the stack of width vectors, then height vectors, with a row
    of ones of each kind, over n = -_PAD .. N - _PAD - 1, the height
    vectors reversed: with (a, b) = plan.layout[i], factor i at source
    (w, h) is vectors[a][w + _PAD] * vectors[b][N - 1 - (h + _PAD)], a
    None left out, or consts[i] where both are None.  Dummies (1) at
    non-positive arguments only ever meet zero source entries."""
    at, starts = plan.products[at_p]
    consts = np.multiply.reduceat(np.array(
        [bases[base] ** e for base, e in plan.powers[at_p]] + [1.0])[at],
        starts)
    # every term over n, then the row of ones, and all of it reversed;
    # f-terms are 1 - e^{-q(n + shift)}, 1 where n + shift <= 0
    n = np.arange(-_PAD, N - _PAD, dtype=float)
    terms = np.empty((2, len(plan.shift) + 1, N))
    f, e = terms[0, :plan.n_f], terms[0, plan.n_f:-1]
    np.add(n, plan.shift, out=terms[0, :-1])
    f[f <= 0.0] = np.inf        # 1 - e^{-q inf} = 1
    np.negative(np.expm1(f * -params.q, out=f), out=f)
    np.exp(np.maximum(e, 0.0) * (-params.q * plan.q_coeff), out=e)
    terms[0, -1] = 1.0
    terms[1] = terms[0, :, ::-1]
    terms = terms.reshape(-1, N)
    vectors = terms[plan.ab_terms]
    for lo, hi, column in plan.ab_more:
        vectors[lo:hi] *= terms[column]
    vectors *= consts[plan.ab_const]
    return consts, vectors


class _Engine:
    """Single-use DP state for one plan at one parameter."""

    def __init__(self, plan: _Plan, params: ModelParams, threshold: int,
                 memory_cap_bytes: int):
        self.plan = plan
        self.L = threshold
        self.N = self.L + 2 * _PAD + 4       # width-axis length, index = w + _PAD
        est = plan.window * len(plan.rows) * self.N * 8
        if est > memory_cap_bytes:
            # Decimal, as an explicit threshold can put est past the
            # double range; imported here to keep it off the import path
            from decimal import Decimal
            raise ResourceCapError(
                f"estimated {Decimal(est):.3g} bytes of level storage "
                f"exceeds cap {Decimal(memory_cap_bytes):.3g}")
        bases = {base: _base(base, params) for base in plan.bases}
        at_p = plan.base_is_p(bases)
        self.lam = params.p if at_p else 1.0
        self._consts, self._vectors = _factor_vectors(plan, params, bases,
                                                      self.N, at_p)
        self._levels = np.zeros((plan.window, len(plan.rows), self.N))
        # the seed: X = kappa F at (1, 1), and kappa is 1 at the seed row
        self._levels[2 % plan.window, plan.seed_row, 1 + _PAD] = 1.0
        self._rows = self._levels.reshape(-1, self.N)
        # the arrays the programs' views slice (_Plan.block_spans and
        # level_spans), and their operand table: the constants, as 0-d
        # arrays (a ufunc takes them faster than floats), then the views
        # that last a block, then the height vectors, sliced per level
        self._bases = [*self._rows, *self._vectors, np.empty(self.N)]
        self._ops = [self._consts[key[1], ...]
                     for key in plan.operands[:plan.fixed_at]]
        self._ops += [None] * (len(plan.operands) - plan.fixed_at)
        self._los, self._his = [1] * plan.window, [1] * plan.window
        self.scale = 0.0    # log of the scale every level in the ring shares
        self.cells = self.dropped = 0

    # -- main loop ------------------------------------------------------------
    def sweep(self):
        """Fill levels 2 .. L - 1 into the ring, each by its program over
        its block [blo, bhi) (module docstring).

        A program's first write into a row overwrites the block, so the
        block is not cleared: a slot is fresh (zeros, but for the seed
        __init__ wrote) until phi = 2 + window, and the openings
        (phi <= max_dphi + 1) hold only the edges out of levels 2 .. phi,
        so none writes the seed's row at phi = 2; from there on every
        stored row with an incoming edge is overwritten."""
        L, N, plan = self.L, self.N, self.plan
        window = plan.window
        levels, los, his = self._levels, self._los, self._his
        ops, bases = self._ops, self._bases
        at, end = plan.fixed_at, plan.heights_at
        max_dw, openings = plan.max_dw, len(plan.openings)
        peak = np.maximum.reduce
        block = None
        for phi in range(2, L):
            slot = phi % window
            cur = levels[slot]
            # fill the union of the source levels' ranges shifted by
            # 0 .. max dw (the other slots hold the sources, or are fresh
            # with an empty range; this slot's previous level is marked
            # empty), and clear what that level left outside its block
            old_lo, old_hi = los[slot], his[slot]
            los[slot], his[slot] = L, 0
            lo, hi = min(los), min(phi, max(his) + max_dw)
            blo, bhi = lo - lo % _BLOCK, hi + -hi % _BLOCK
            if block != (blo, bhi):
                block, la, cnt = (blo, bhi), blo + _PAD, bhi - blo
                ops[at:end] = [bases[i][la - d:la - d + cnt]
                               for i, d in plan.block_spans]
            if old_lo < blo:
                cur[:, old_lo + _PAD:blo + _PAD] = 0.0
            if bhi < old_hi:
                cur[:, bhi + _PAD:old_hi + _PAD] = 0.0
            # a height vector reads source height phi - dphi - w + dw
            # reversed, from lb + dh
            lb = N - 1 - _PAD - phi + blo
            ops[end:] = [bases[i][lb + d:lb + d + cnt]
                         for i, d in plan.level_spans]
            for f, x, y, out in (plan.openings[phi - 2] if phi - 2 < openings
                                 else plan.programs[slot]):
                f(ops[x], ops[y], ops[out])
            self.cells += hi - lo
            live = cur[:, lo + _PAD:hi + _PAD]
            colmax = peak(live, 0)      # live.max(axis=0), without its wrapper
            top = peak(colmax)
            if top > 1.0 or 0.0 < top < _BAND_LOW:
                inv = 1.0 / top
                live *= inv
                colmax *= inv
                self.scale -= math.log(inv)     # the divisor actually applied
                # and so are the levels that later levels still read, so
                # the ring keeps one scale
                for d in range(1, window - 1):
                    s = (phi - d) % window
                    levels[s][:, los[s] + _PAD:his[s] + _PAD] *= inv
            # the surviving columns, those holding a normal double, found
            # by a scan from both ends: the dropped tails are a few
            # columns, and a boolean temporary of a new length every level
            # would grow numpy's small-buffer cache; the dropped columns
            # are zeroed, so every slot is zero outside its range
            a, b = 0, hi - lo
            while a < b and colmax[a] < _TINY:
                a += 1
            while b > a and colmax[b - 1] < _TINY:
                b -= 1
            if a or b < hi - lo:
                live[:, :a] = live[:, b:] = 0.0
                self.dropped += hi - lo - b + a
            los[slot], his[slot] = lo + a, lo + b

    def hits(self):
        """Returns (log hit prob exact, log hit prob at-least).

        phi only increases, so every path leaves the levels below L
        exactly once, along an edge that raises phi into a level T in
        L .. L+max_dphi-1, an exact hit when T = L.  The flow along an
        edge is the flow the sweep adds into X_t, read off the same
        factor (_Plan.layout), times 1 / kappa_t: its constant times the
        sum of the source row over its level's range, or, where residual
        terms are left, the sum of the row times its width and height
        vectors, for all such edges one einsum over the union of the last
        levels' ranges: a slot is zero outside its range and the einsum
        sums from left to right in runs of numpy's 8192-column buffer, so
        while the union spans at most 8192 the extra columns add exact
        zeros (TestHitFold); past that a flow may round otherwise.  The
        levels share one scale, so the flows, each into T times
        lam^(T - L), are summed once by math.fsum, and (L - 2) log lam is
        added to the log; no BLAS."""
        L, N, plan = self.L, self.N, self.plan
        if L == 2:
            return 0.0, 0.0
        window, los, his, lam = plan.window, self._los, self._his, self.lam
        slots = [(L - j) % window for j in range(1, min(window, L - 1))]
        sums = np.zeros((plan.max_dphi, len(plan.rows)))
        for j in plan.fold_sums:
            if j < len(slots):
                lo, hi = los[slots[j]] + _PAD, his[slots[j]] + _PAD
                self._levels[slots[j]][:, lo:hi].sum(axis=1, out=sums[j])
        flows = np.empty(len(plan.fold_k))
        np.multiply(sums[plan.fold_j, plan.fold_src],
                    self._consts[plan.fold_fi], out=flows[:plan.bare])
        if plan.bare < len(flows):
            lo, vectors = min(los[s] for s in slots), self._vectors
            la, cnt = lo + _PAD, max(his[s] for s in slots) - lo
            # heights[b, j - 1]: vectors[b] at level L - j's height at lo on
            heights = np.ndarray((len(vectors), plan.max_dphi, cnt), float,
                                 vectors, (la + 4) * 8, (N * 8, 8, 8))
            np.einsum("ij,ij,ij->i",
                      self._rows[plan.fold_rows[L % window], la:la + cnt],
                      vectors[plan.fold_a, la:la + cnt],
                      heights[plan.fold_b, plan.fold_h],
                      out=flows[plan.bare:])
        flows *= self._consts[plan.fold_unkappa]
        if lam != 1.0:
            flows *= np.array([lam ** k for k in range(window)])[plan.fold_k]
        flows = flows.tolist()
        exact = math.fsum(map(flows.__getitem__, plan.fold_exact))
        scale = self.scale + (L - 2) * math.log(lam)
        return _log_scaled(exact, scale), _log_scaled(math.fsum(flows), scale)


def _log_scaled(total: float, scale: float) -> float:
    """log(total * exp(scale)) for total >= 0."""
    return math.log(total) + scale if total > 0.0 else -math.inf


def _run(plan: _Plan, params: ChainParams, model_name: str,
         memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> PiResult:
    t0 = time.perf_counter()
    # every rule has a positive probability, so an overflow (the levels or
    # the constants at a subnormal p span more than a double holds) or a
    # NaN makes the result wrong, not small; underflow stays ignored, as
    # entries fall to subnormals or zero
    try:
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            eng = _Engine(plan, params.model, params.threshold,
                          memory_cap_bytes)
            t1 = time.perf_counter()
            eng.sweep()
            t2 = time.perf_counter()
            hit_exact, hit_atl = eng.hits()
    except (FloatingPointError, OverflowError) as exc:
        raise ArithmeticError(
            f"the level scale left the double range at p={params.model.p!r}, "
            f"L={params.threshold} ({exc.args[-1]})") from None
    t3 = time.perf_counter()
    hit = hit_exact if params.convention == "exact" else hit_atl
    return PiResult(
        p=params.model.p, q=params.model.q, threshold=params.threshold,
        convention=params.convention, log_hit_prob=hit,
        log_pi=0.0 if hit == 0.0 else -hit / 2.0,
        wall_time_seconds=time.perf_counter() - t0, model=model_name,
        cells_swept=eng.cells, prepare_seconds=t1 - t0,
        sweep_seconds=t2 - t1, hits_seconds=t3 - t2,
        levels=params.threshold - 2, level_bytes=eng._levels.nbytes,
        cells_dropped=eng.dropped,
    )


def compute_pi(params: ChainParams, threads: int = 1,
               memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES
               ) -> PiResult:
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
