"""Compare the level sweep of two checkouts, call against call, in one process.

    python tools/sweep_ab.py OLD NEW --k 9,11 --reps 4

OLD and NEW are checkouts of the repository.  Each one's ``src/bpdp`` is
imported under a package name of its own, so both live in one process.
Per k, compute_pi at p = 2^-k and the default threshold runs reps times
on each side, the two sides in turn, with the side that goes first
alternating from one round to the next.  The first JSON line,
{"host": ...}, holds the host facts of NEW's bpdp.cli._host(), which
every CLI record carries.  Then one JSON line per k gives, per side, the
median and quartiles of PiResult.sweep_seconds; the rounds in which
NEW's sweep was the faster; and whether log_hit_prob.hex() was the same
on both sides in every round.

The host's speed can drift by 15-30% within a minute, so runs in
separate processes cannot resolve a change of a few percent in the
sweep; calls that alternate within one process share the drift.
"""

import argparse
import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np

# All load comes from one thread; keep numeric libraries from starting pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def load(checkout: str, name: str):
    """The chain package of checkout's src/bpdp, imported as name.chain."""
    package = Path(checkout, "src", "bpdp").resolve()
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    if spec is None:
        sys.exit(f"sweep_ab: no bpdp sources at {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.chain")


def quartiles(xs: list) -> dict:
    q1, median, q3 = np.percentile(xs, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--k", default="9,11",
                        help="comma-separated exponents, p = 2^-k")
    parser.add_argument("--reps", type=int, default=4,
                        help="calls per side and k")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    sides = {"old": load(args.old, "bpdp_old"),
             "new": load(args.new, "bpdp_new")}
    print(json.dumps({"host": importlib.import_module("bpdp_new.cli")._host()}),
          flush=True)
    for k in (int(x) for x in args.k.split(",")):
        p = 2.0 ** -k
        sweeps = {side: [] for side in sides}
        same = True
        for rep in range(args.reps):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            bits = {}
            for side in order:
                chain = sides[side]
                r = chain.compute_pi(chain.ChainParams.from_p(p))
                sweeps[side].append(r.sweep_seconds)
                bits[side] = r.log_hit_prob.hex()
            same = same and bits["old"] == bits["new"]
        print(json.dumps({
            "k": k, "reps": args.reps,
            "sweep_s": {side: quartiles(xs) for side, xs in sweeps.items()},
            "new_wins": sum(n < o for o, n in zip(sweeps["old"],
                                                  sweeps["new"])),
            "log_hit_prob_hex_equal": same,
            "runs": sweeps}), flush=True)


if __name__ == "__main__":
    main()
