"""Ground-truth lattice dynamics and rectangle events.

Everything here works on explicit finite configurations: sets of infected
sites confined to a bounding box (sites outside are permanently healthy).
Two closure routes are implemented for each model -- direct fixpoint
iteration and the rectangles process -- so they can be checked against
each other.  The framed-rectangle exploration reveals a configuration cell
by cell and must reproduce the chain's transition probabilities; that is
the bridge between the lattice and the dynamic program.  Its candidate
transitions are the rows of ``FROBOSE_TABLE``, the chain's own table.

``explore`` runs on a bitboard: the box is one Python int, cell (x, y) at
bit (y - box.b) * stride + (x - box.a) with stride box.width + 1, so an
always-empty guard column keeps x-shifts from wrapping between rows.  The
board is loaded lazily, cell by cell from the caller's set, over
rect.expand(2) of each step's rectangle, the only cells a step reads.
Frame tests are masks ANDed with the unrevealed infections.

Crossings need no fixpoint.  Every Frobose row grows each side by 0 or 1,
so a crossing adds a one-cell ring to a rectangle whose cells are all
germs: a line along each grown side and a corner between two grown
sides.  A unit square of the grown rectangle that holds a line cell holds
either its neighbour along the line and two cells of the rectangle, or,
at the line's end, a corner and the end of the next line.  So an
infection in a line is a germ (it touches the rectangle) and fills the
whole line, one square at a time; a line with no infection fills exactly
when an infected corner joins it to a line that fills; and a corner,
whose one square is its two line ends and a rectangle cell, fills when
both its lines do.  The crossing holds when every grown line fills: a
function of 4 line bits and 4 corner bits, which ``_ring_crossings``
tabulates per row at import.  The closures, ``crossing`` and the
worklist ``_local_closure`` stay set-based: they are the independent
oracle the bitboard is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .chain.rules import FRAME_BUFFERS, FROBOSE_STATES, frobose_transitions
from .special_functions import ModelParams

__all__ = [
    "Rectangle", "FramedRectangle",
    "closure_two_neighbour", "closure_frobose",
    "rectangles_process_closure",
    "local_closure_two_neighbour", "local_closure_frobose",
    "EVENTS", "event_holds", "occupied", "internally_filled",
    "locally_internally_filled", "crossing", "no_horizontal_gaps",
    "no_vertical_gaps", "traversable",
    "explore", "mc_estimate", "exact_event_prob",
    "EXACT_ENUMERATION_MAX_CELLS",
]

Site = Tuple[int, int]

EXACT_ENUMERATION_MAX_CELLS = 22


@dataclass(frozen=True)
class Rectangle:
    """Half-open lattice rectangle [a, c) x [b, d)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not (self.a < self.c and self.b < self.d):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> int:
        return self.c - self.a

    @property
    def height(self) -> int:
        return self.d - self.b

    @property
    def phi(self) -> int:
        """Semi-perimeter: width plus height."""
        return self.width + self.height

    @property
    def sh(self) -> int:
        return min(self.width, self.height)

    @property
    def lng(self) -> int:
        return max(self.width, self.height)

    def cells(self) -> Set[Site]:
        return {(x, y) for x in range(self.a, self.c)
                for y in range(self.b, self.d)}

    def __contains__(self, site: Site) -> bool:
        x, y = site
        return self.a <= x < self.c and self.b <= y < self.d

    def contains_rect(self, other: "Rectangle") -> bool:
        return (self.a <= other.a and self.b <= other.b
                and other.c <= self.c and other.d <= self.d)

    def expand(self, m: int) -> "Rectangle":
        return Rectangle(self.a - m, self.b - m, self.c + m, self.d + m)

    def grow(self, alpha: int, beta: int, gamma: int, delta: int) -> "Rectangle":
        return Rectangle(self.a - alpha, self.b - beta,
                         self.c + gamma, self.d + delta)


def _buffers(rect: Rectangle, thickness: int) -> Dict[str, Set[Site]]:
    """The side strips of the given thickness just outside rect."""
    a, b, c, d, t = rect.a, rect.b, rect.c, rect.d, thickness
    return {
        "r": {(x, y) for x in range(c, c + t) for y in range(b, d)},
        "u": {(x, y) for x in range(a, c) for y in range(d, d + t)},
        "l": {(x, y) for x in range(a - t, a) for y in range(b, d)},
        "d": {(x, y) for x in range(a, c) for y in range(b - t, b)},
    }


# corner cell between each pair of adjacent two-neighbour buffers
_2N_CORNERS = {
    frozenset(("r", "u")): lambda r: (r.c, r.d),
    frozenset(("u", "l")): lambda r: (r.a - 1, r.d),
    frozenset(("l", "d")): lambda r: (r.a - 1, r.b - 1),
    frozenset(("d", "r")): lambda r: (r.c, r.b - 1),
}


@dataclass(frozen=True)
class FramedRectangle:
    """Rectangle plus the frame state naming its revealed-empty buffers.

    Frobose frames are thickness-1 side strips; two-neighbour frames are
    thickness-2 and gain the corner cell between adjacent buffers.
    """

    rect: Rectangle
    state: str

    def frame_cells(self, model: str = "frobose") -> Set[Site]:
        keys = FRAME_BUFFERS[self.state]
        if model == "frobose" and self.state == "2''":
            raise ValueError("frame state 2'' exists only for the "
                             "two-neighbour model")
        bufs = _buffers(self.rect, 1 if model == "frobose" else 2)
        out: Set[Site] = set().union(*(bufs[key] for key in keys))
        if model != "frobose":
            out |= {corner(self.rect) for pair, corner in _2N_CORNERS.items()
                    if pair <= set(keys)}
        return out

    def explored_cells(self) -> Set[Site]:
        return self.rect.cells() | self.frame_cells()

    def projected(self) -> Tuple[int, int, str]:
        return (self.rect.width, self.rect.height, self.state)


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------

_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONALS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def closure_two_neighbour(infected: Iterable[Site],
                          box: Optional[Rectangle] = None) -> Set[Site]:
    """Least fixpoint of the two-infected-neighbours rule."""
    cur = set(infected)
    inside = (lambda s: True) if box is None else (lambda s: s in box)
    frontier = set(cur)
    while frontier:
        candidates = set()
        for (x, y) in frontier:
            for dx, dy in _NEIGHBOURS:
                s = (x + dx, y + dy)
                if s not in cur and inside(s):
                    candidates.add(s)
        frontier = set()
        for (x, y) in candidates:
            n = sum((x + dx, y + dy) in cur for dx, dy in _NEIGHBOURS)
            if n >= 2:
                cur.add((x, y))
                frontier.add((x, y))
    return cur


def closure_frobose(infected: Iterable[Site],
                    box: Optional[Rectangle] = None) -> Set[Site]:
    """Least fixpoint of the three-infected-corners rule: a site completing
    a unit square whose other three corners are infected becomes infected."""
    cur = set(infected)
    inside = (lambda s: True) if box is None else (lambda s: s in box)

    def infectable(x, y):
        for dx, dy in _DIAGONALS:
            if ((x + dx, y + dy) in cur and (x + dx, y) in cur
                    and (x, y + dy) in cur):
                return True
        return False

    frontier = set(cur)
    while frontier:
        candidates = set()
        for (x, y) in frontier:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    s = (x + dx, y + dy)
                    if s not in cur and inside(s):
                        candidates.add(s)
        frontier = set()
        for (x, y) in candidates:
            if infectable(x, y):
                cur.add((x, y))
                frontier.add((x, y))
    return cur


def _rect_distance(r1: Rectangle, r2: Rectangle) -> int:
    dx = max(r1.a - (r2.c - 1), r2.a - (r1.c - 1), 0)
    dy = max(r1.b - (r2.d - 1), r2.b - (r1.d - 1), 0)
    return dx + dy


def rectangles_process_closure(infected: Iterable[Site], model: str) -> Set[Site]:
    """Closure via iterated merging of rectangles at graph distance <= 2
    (two-neighbour) or <= 1 (Frobose)."""
    maxdist = {"two-neighbour": 2, "frobose": 1}[model]
    rects: List[Rectangle] = [Rectangle(x, y, x + 1, y + 1) for x, y in set(infected)]
    merged = True
    while merged:
        merged = False
        n = len(rects)
        for i in range(n):
            for j in range(i + 1, n):
                if _rect_distance(rects[i], rects[j]) <= maxdist:
                    ri, rj = rects[i], rects[j]
                    union = Rectangle(min(ri.a, rj.a), min(ri.b, rj.b),
                                      max(ri.c, rj.c), max(ri.d, rj.d))
                    rects[i] = union
                    del rects[j]
                    merged = True
                    break
            if merged:
                break
    out: Set[Site] = set()
    for r in rects:
        out |= r.cells()
    return out


def _local_closure(infected, germs, queue, box, model) -> Set[Site]:
    """Worklist engine shared by the local closures and crossings.

    Every cell enters the queue at most once, when it becomes a germ, and
    triggers O(1) rule checks on its neighbourhood; rule-created infections
    are always germ-adjacent, so they join the germ set immediately.
    """
    inf = set(infected) | germs
    if box is None:
        xa = ya = -(1 << 60)
        xc = yc = 1 << 60
    else:
        xa, ya, xc, yc = box.a, box.b, box.c, box.d
    frobose = model == "frobose"
    while queue:
        gx, gy = queue.pop()
        for dx, dy in _NEIGHBOURS:
            s = (gx + dx, gy + dy)
            if s in inf and s not in germs:
                germs.add(s)
                queue.append(s)
        # cells whose infection rule may have just been enabled
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                yx, yy = gx + dx, gy + dy
                if not (xa <= yx < xc and ya <= yy < yc):
                    continue
                y = (yx, yy)
                if y in inf:
                    continue
                if frobose:
                    hit = False
                    for ex, ey in _DIAGONALS:
                        if ((yx + ex, yy + ey) in inf
                                and (yx + ex, yy) in inf
                                and (yx, yy + ey) in inf
                                and ((yx + ex, yy) in germs
                                     or (yx, yy + ey) in germs)):
                            hit = True
                            break
                else:
                    ninf = sum((yx + ex, yy + ey) in inf
                               for ex, ey in _NEIGHBOURS)
                    ngerm = any((yx + ex, yy + ey) in germs
                                for ex, ey in _NEIGHBOURS)
                    hit = ninf >= 2 and ngerm
                if hit:
                    inf.add(y)
                    germs.add(y)   # germ-adjacent by construction
                    queue.append(y)
    return germs


def local_closure_two_neighbour(infected: Iterable[Site], germ: Site,
                                box: Optional[Rectangle] = None) -> Set[Site]:
    """Germ set of the local two-neighbour dynamics: a healthy site with at
    least two infected neighbours, one of them a germ, becomes a germ."""
    inf = set(infected)
    if germ not in inf:
        raise ValueError("germ must be infected")
    return _local_closure(inf, {germ}, [germ], box, "two-neighbour")


def local_closure_frobose(infected: Iterable[Site], germ: Site,
                          box: Optional[Rectangle] = None) -> Set[Site]:
    """Germ set of the local Frobose dynamics: the unit-square rule where
    at least one of the two orthogonal corners is a germ."""
    inf = set(infected)
    if germ not in inf:
        raise ValueError("germ must be infected")
    return _local_closure(inf, {germ}, [germ], box, "frobose")


# ---------------------------------------------------------------------------
# Rectangle events
# ---------------------------------------------------------------------------

def occupied(cells: Iterable[Site], infected: Set[Site]) -> bool:
    return any(s in infected for s in cells)


def internally_filled(rect: Rectangle, infected: Set[Site], model: str) -> bool:
    inside = {s for s in infected if s in rect}
    closure = (closure_frobose if model == "frobose"
               else closure_two_neighbour)(inside, rect)
    return len(closure) == rect.width * rect.height


def locally_internally_filled(rect: Rectangle, infected: Set[Site],
                              model: str) -> bool:
    inside = {s for s in infected if s in rect}
    local = (local_closure_frobose if model == "frobose"
             else local_closure_two_neighbour)
    full = rect.width * rect.height
    for germ in inside:
        if len(local(inside, germ, rect)) == full:
            return True
    return False


def crossing(small: Rectangle, big: Rectangle, infected: Set[Site],
             model: str) -> bool:
    """A filled small rectangle plus the infections inside big fills big,
    under the local dynamics seeded in the small rectangle."""
    if not big.contains_rect(small):
        raise ValueError("need small contained in big")
    available = {s for s in big.cells() if s in infected}
    if not available and big != small:
        return False
    germs = small.cells()
    # the small rectangle is entirely germed; only the boundary cells that
    # face the growth region can trigger anything
    queue = []
    for (x, y) in germs:
        if ((x == small.a and big.a < small.a)
                or (x == small.c - 1 and big.c > small.c)
                or (y == small.b and big.b < small.b)
                or (y == small.d - 1 and big.d > small.d)):
            queue.append((x, y))
    out = _local_closure(available, germs, queue, big, model)
    return len(out) == big.width * big.height


def no_horizontal_gaps(rect: Rectangle, infected: Set[Site]) -> bool:
    """Every row of the rectangle contains an infection."""
    rows = {y for (x, y) in infected if (x, y) in rect}
    return len(rows) == rect.height


def no_vertical_gaps(rect: Rectangle, infected: Set[Site]) -> bool:
    """Every column of the rectangle contains an infection."""
    cols = {x for (x, y) in infected if (x, y) in rect}
    return len(cols) == rect.width


def traversable(rect: Rectangle, infected: Set[Site], direction: str) -> bool:
    """East-traversable: the last column is occupied and every pair of
    consecutive columns is occupied; other directions by symmetry."""
    pts = [s for s in infected if s in rect]
    if direction == "east":
        coords = sorted({x - rect.a for (x, y) in pts})
        n = rect.width
    elif direction == "west":
        coords = sorted({rect.c - 1 - x for (x, y) in pts})
        n = rect.width
    elif direction == "north":
        coords = sorted({y - rect.b for (x, y) in pts})
        n = rect.height
    elif direction == "south":
        coords = sorted({rect.d - 1 - y for (x, y) in pts})
        n = rect.height
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if n - 1 not in coords:
        return False
    # an occupied line in every window {i-1, i}, i = 1..n-1
    present = set(coords)
    return all((i in present) or (i - 1 in present) for i in range(1, n))


EVENTS = {
    "I": lambda rect, A: internally_filled(rect, A, "two-neighbour"),
    "IF": lambda rect, A: internally_filled(rect, A, "frobose"),
    "I_loc": lambda rect, A: locally_internally_filled(rect, A, "two-neighbour"),
    "IF_loc": lambda rect, A: locally_internally_filled(rect, A, "frobose"),
    "O": lambda rect, A: occupied(rect.cells(), A),
    "G-": lambda rect, A: no_horizontal_gaps(rect, A),
    "G|": lambda rect, A: no_vertical_gaps(rect, A),
    "T_east": lambda rect, A: traversable(rect, A, "east"),
    "T_west": lambda rect, A: traversable(rect, A, "west"),
    "T_north": lambda rect, A: traversable(rect, A, "north"),
    "T_south": lambda rect, A: traversable(rect, A, "south"),
}


def event_holds(event_id: str, rect: Rectangle, infected: Set[Site]) -> bool:
    """Evaluate a named rectangle event on a configuration."""
    try:
        fn = EVENTS[event_id]
    except KeyError:
        raise ValueError(f"unknown event {event_id!r}") from None
    return fn(rect, infected)


# ---------------------------------------------------------------------------
# Framed-rectangle exploration
# ---------------------------------------------------------------------------

# A step's key: bit i is set when the ring line along side "ruld"[i] of
# the current rectangle holds an unrevealed infection, bit 4 + i when the
# ring corner between sides i and i + 1 (mod 4) does.  _KEY_BITS[i] has bit
# k set when key k has bit i, so one int operation on them evaluates a
# formula for all 256 keys at once.
_KEY_BITS = [sum(1 << k for k in range(256) if k >> i & 1) for i in range(8)]


def _ring_crossings(rule) -> int:
    """The keys whose crossing onto the rule's rectangle holds, as the set
    bits of a 256-bit int: every grown line fills (module docstring)."""
    grown = (rule.gamma, rule.delta, rule.alpha, rule.beta)   # r, u, l, d
    if not set(grown) <= {0, 1}:
        raise ValueError(f"{rule} grows a side by more than one cell")
    sides = [i for i in range(4) if grown[i]]
    fills = [_KEY_BITS[i] if grown[i] else 0 for i in range(4)]
    corner = _KEY_BITS[4:]
    for _ in range(3):   # a join passes at most three corners
        for i in sides:
            fills[i] |= (corner[i] & fills[(i + 1) % 4]
                         | corner[i - 1] & fills[i - 1])
    keys = (1 << 256) - 1
    for i in sides:
        keys &= fills[i]
    return keys


# Candidate transitions out of each live frame state, in table row order:
# the side offsets, the destination state, its side buffers and the keys
# whose crossing holds.
_EXPLORE_RULES = {s: tuple((r.alpha, r.beta, r.gamma, r.delta, r.dst,
                            FRAME_BUFFERS[r.dst], _ring_crossings(r))
                           for r in frobose_transitions(s))
                  for s in FROBOSE_STATES if s != "4"}


def explore(infected: Set[Site], seed_rect: Rectangle,
            box: Rectangle,
            max_phi: Optional[int] = None) -> List[FramedRectangle]:
    """Deterministic exploration of a configuration from a seed rectangle.

    From the current framed rectangle the candidate transitions are tested
    in table row order on the not-yet-revealed infections, and the unique
    one that holds is taken.  Stops at frame state 4, when the next reveal
    could leave the box, or (when max_phi is given) as soon as the
    semi-perimeter reaches max_phi.

    Runs on the bitboard described in the module docstring.  Before each
    step the cells of rect.expand(2) not loaded yet are looked up in
    ``infected`` with Python-int coordinates, so its sites may be tuples
    of numpy integers, and sites outside that region are never read.
    The loaded region is a rectangle that only grows, so the new cells
    are the new columns beside its rows, looked up one column at a time,
    and then the new full rows above and below it; no cell is looked up
    twice.
    Each step's key says which lines and corners of the one-cell ring
    around the rectangle hold unrevealed infections; a row's crossing holds
    when every line it grows holds one or is joined to one that does by
    infected corners (proof in the module docstring).
    """
    out = [FramedRectangle(seed_rect, "0")]
    x0, y0 = box.a, box.b
    stride = box.width + 1
    column = [0]   # column[h]: bits 0, stride, ..., (h-1)*stride
    tallest = box.height if max_phi is None else min(box.height, max_phi + 2)
    for h in range(tallest):
        column.append(column[-1] | 1 << (h * stride))

    def frame(a, b, c, d, sides):
        mask = 0
        for side in sides:
            if side == "r":
                mask |= column[d - b] << (b * stride + c)
            elif side == "l":
                mask |= column[d - b] << (b * stride + a - 1)
            elif side == "u":
                mask |= ((1 << (c - a)) - 1) << (d * stride + a)
            else:
                mask |= ((1 << (c - a)) - 1) << ((b - 1) * stride + a)
        return mask

    # board coordinates of the current rectangle, and the box size
    a, b = seed_rect.a - x0, seed_rect.b - y0
    c, d = seed_rect.c - x0, seed_rect.d - y0
    width, height = box.width, box.height
    board = 0                      # infections among the loaded cells
    la, lb, lc, ld = a, b, a, b    # loaded region, empty so far
    revealed = 0
    state = "0"
    while state != "4":
        if max_phi is not None and c - a + d - b >= max_phi:
            break
        if a < 2 or b < 2 or c + 2 > width or d + 2 > height:
            break  # censored at the box boundary
        for x in (*range(a - 2, la), *range(lc, c + 2)):
            xx = x + x0
            for y in range(lb, ld):
                if (xx, y + y0) in infected:
                    board |= 1 << (y * stride + x)
        for y in (*range(b - 2, lb), *range(ld, d + 2)):
            row, yy = y * stride, y + y0
            for x in range(a - 2, c + 2):
                if (x + x0, yy) in infected:
                    board |= 1 << (row + x)
        la, lb, lc, ld = a - 2, b - 2, c + 2, d + 2
        run = ((1 << (c - a)) - 1) << a         # the columns of small
        span = column[d - b] << (b * stride)    # the rows of small
        revealed |= run * span                  # small itself
        hidden = board & ~revealed
        lo, hi = (b - 1) * stride, d * stride   # the rows below and above
        key = ((hidden & span << c != 0)
               | (hidden & run << hi != 0) << 1
               | (hidden & span << (a - 1) != 0) << 2
               | (hidden & run << lo != 0) << 3
               | (hidden >> (hi + c) & 1) << 4
               | (hidden >> (hi + a - 1) & 1) << 5
               | (hidden >> (lo + a - 1) & 1) << 6
               | (hidden >> (lo + c) & 1) << 7)
        chosen = None
        for alpha, beta, gamma, delta, dst, sides, crosses in \
                _EXPLORE_RULES[state]:
            if not crosses >> key & 1:
                continue
            na, nb, nc, nd = a - alpha, b - beta, c + gamma, d + delta
            buffers = frame(na, nb, nc, nd, sides)
            if buffers & hidden:
                continue
            if chosen is not None:
                raise AssertionError(
                    f"transition events not disjoint at {out[-1]}")
            chosen = na, nb, nc, nd, dst, buffers
        if chosen is None:
            raise AssertionError(f"no transition event holds at {out[-1]}")
        a, b, c, d, state, buffers = chosen
        revealed |= buffers
        out.append(FramedRectangle(
            Rectangle(a + x0, b + y0, c + x0, d + y0), state))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo and exhaustive estimators
# ---------------------------------------------------------------------------

def mc_estimate(event: Callable[[Set[Site]], bool], cells: Iterable[Site],
                params: ModelParams, n: int, seed: int) -> Dict[str, object]:
    """Frequency estimate of an event over i.i.d. Bernoulli configurations
    on the given cells, with exact binomial standard error."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cells = sorted(set(cells))
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    for _ in range(n):
        mask = rng.random(len(cells)) < params.p
        config = {c for c, m in zip(cells, mask) if m}
        if event(config):
            hits += 1
    p_hat = hits / n
    return {
        "p_hat": p_hat,
        "std_err": math.sqrt(p_hat * (1.0 - p_hat) / n),
        "n": n,
        "seed": seed,
        "algorithm": "philox",
    }


def exact_event_prob(event: Callable[[Set[Site]], bool], cells: Iterable[Site],
                     params: ModelParams) -> float:
    """Exact probability by enumeration over all 2^|cells| configurations."""
    cells = sorted(set(cells))
    m = len(cells)
    if m > EXACT_ENUMERATION_MAX_CELLS:
        raise ValueError(f"{m} cells exceeds enumeration bound "
                         f"{EXACT_ENUMERATION_MAX_CELLS}")
    p = params.p
    total = 0.0
    for bits in range(1 << m):
        config = {cells[i] for i in range(m) if bits >> i & 1}
        if event(config):
            k = len(config)
            total += p ** k * (1.0 - p) ** (m - k)
    return total
