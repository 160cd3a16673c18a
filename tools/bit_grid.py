"""Print the DP's result, to the bit, at a fixed grid of 260 points.

One line per point: plan, repr(p), L, convention, log_hit_prob.hex() and
cells_swept, or ArithmeticError where the call raises one.  The points:

- p = 2^-k at the default threshold, k = 2..10 (at k = 10 the union of
  the last levels' ranges that the two-neighbour hit fold sums over is
  11549 columns, past numpy's 8192-column einsum buffer);
- p in {0.1, 0.3, 0.5, 0.7, 0.9, 1e-5, 1e-10, 1e-60, 1e-150} times
  L in {2, 3, 5, 12, 40, 200};
- (p, L) = (0.5, 2000) and (0.9, 800);

each for both plans (compute_pi and compute_two_neighbour_lower_bound) and
both hit conventions.  Diffing the output of two checkouts shows whether a
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


def main():
    for name, fn in PLANS:
        for p, threshold in points():
            for convention in ("exact", "at-least"):
                params = ChainParams.from_p(p, threshold, convention)
                try:
                    r = fn(params)
                    out = f"{r.log_hit_prob.hex()} {r.cells_swept}"
                except ArithmeticError:
                    out = "ArithmeticError"
                print(name, repr(p), params.threshold, convention, out)


if __name__ == "__main__":
    main()
