"""Print the DP's result, to the bit, at a fixed grid of 260 calls, and again
at the 148 of them with L <= 33.

One line per point: plan, repr(p), L, convention, log_hit_prob.hex() and
cells_swept, or ArithmeticError where the call raises one.  The points:

- p = 2^-k at the default threshold, k = 2..10 (at k = 10 the union of
  the last levels' ranges that the two-neighbour hit fold sums over is
  11549 columns, past numpy's 8192-column einsum buffer);
- p in {0.1, 0.3, 0.5, 0.7, 0.9, 1e-5, 1e-10, 1e-60, 1e-150} times
  L in {2, 3, 5, 12, 40, 200};
- (p, L) = (0.5, 2000) and (0.9, 800);

each for both plans (compute_pi and compute_two_neighbour_lower_bound) and
both hit conventions.  Then the 148 lines with L <= 33, whose levels all
lie in the sweep's first block, come a second time in reverse order: a
call at such L takes the ring and operand table that an earlier call at
the same plan and width axis left behind, so these lines show that reuse
moves no bit either.  Diffing the output of two checkouts shows whether a
change to the engine moved any result by a single bit:

    PYTHONPATH=src python tools/bit_grid.py > grid.txt
"""

from bpdp.chain import ChainParams, compute_pi, compute_two_neighbour_lower_bound

PLANS = (("frobose", compute_pi),
         ("two-neighbour", compute_two_neighbour_lower_bound))


def points():
    """(p, threshold) per point of one plan; None is the default threshold."""
    yield from ((2.0 ** -k, None) for k in range(2, 11))
    yield from ((p, L) for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1e-5, 1e-10,
                                 1e-60, 1e-150)
                for L in (2, 3, 5, 12, 40, 200))
    yield from ((0.5, 2000), (0.9, 800))


def line(name, fn, params):
    try:
        r = fn(params)
        out = f"{r.log_hit_prob.hex()} {r.cells_swept}"
    except ArithmeticError:
        out = "ArithmeticError"
    return " ".join((name, repr(params.model.p), str(params.threshold),
                     params.convention, out))


def main():
    calls = [(name, fn, ChainParams.from_p(p, threshold, convention))
             for name, fn in PLANS for p, threshold in points()
             for convention in ("exact", "at-least")]
    for call in calls + [call for call in reversed(calls)
                         if call[2].threshold <= 33]:
        print(line(*call))


if __name__ == "__main__":
    main()
