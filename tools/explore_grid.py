"""Print a digest of explore's trajectories over a fixed set of 24000 inputs.

One line per group: p, box width and height, the number of
configurations and the SHA-256 of their trajectories, each step written
as its absolute rectangle a,b,c,d and frame state.  The groups:

- p in {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7};
- boxes w wide and 48 - w tall, w in {19, 21, ..., 29}, with the germ
  (0, 0) at their centre column and row;

500 Bernoulli(p) configurations each, the seed rectangle cycling through
1x1, 2x1 and 1x3 at the germ (its cells infected), every other one
capped at a semi-perimeter from 3 to 29 and the rest uncapped.  Diffing
the output of two checkouts shows whether a change to explore moved any
step of any trajectory:

    PYTHONPATH=src python tools/explore_grid.py > grid.txt
"""

import hashlib
import itertools

import numpy as np

from bpdp.lattice_sim import Rectangle, explore

PS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7)
WIDTHS = tuple(range(19, 30, 2))
PER_GROUP = 500
SEEDS = ((1, 1), (2, 1), (1, 3))


def main():
    for group, (p, width) in enumerate(itertools.product(PS, WIDTHS)):
        height = 48 - width
        box = Rectangle(-(width // 2), -(height // 2),
                        width - width // 2, height - height // 2)
        cells = sorted(box.cells())
        rng = np.random.Generator(np.random.Philox(group))
        digest = hashlib.sha256()
        for i in range(PER_GROUP):
            sw, sh = SEEDS[i % len(SEEDS)]
            seed = Rectangle(0, 0, sw, sh)
            hit = rng.random(len(cells)) < p
            infected = {c for c, m in zip(cells, hit) if m} | seed.cells()
            cap = 3 + (i // 2) % 27 if i % 2 == 0 else None
            for fr in explore(infected, seed, box, cap):
                r = fr.rect
                digest.update(f"{r.a},{r.b},{r.c},{r.d},{fr.state};".encode())
            digest.update(b"\n")
        print(p, width, height, PER_GROUP, digest.hexdigest())


if __name__ == "__main__":
    main()
