"""Benchmark of bpdp: runs one workload and prints its result as JSON.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
diagnostics go to standard error.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# All load comes from one thread; keep numeric libraries from starting pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
PROBE_CALIBRATION_S = 0.04


def import_program() -> None:
    """Put the checkout's sources first on the path, or exit non-zero."""
    package = SRC / "bpdp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no bpdp sources at {package}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bpdp
    if Path(bpdp.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported bpdp from {bpdp.__file__}, "
                 f"not from {package}")


def setup_seconds(host) -> float:
    """Median over fresh interpreters of import plus warm-up; ``host``
    samples the host's speed after each one."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]))
        host.burst(PROBE_CALIBRATION_S)
    return statistics.median(times)


def run_rounds(workload, seconds: float, tracer) -> list:
    """Whole rounds while the next one is expected to fit in ``seconds``."""
    walls = []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        walls.append(workload.run_round(workload.prepare_round(), tracer))
    return walls


def untraced(name: str, seed: int, seconds: float):
    from hostspeed import HostSpeed
    from workloads import NULL_TRACER, WORKLOADS
    workload = WORKLOADS[name](seed)
    setup_host = HostSpeed()
    setup = setup_seconds(setup_host)
    workload.host = HostSpeed()
    walls = run_rounds(workload, seconds, NULL_TRACER)
    workload.host.sample()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (setup * setup_host.scale(), "s"),
        "norm_wall_s": (wall * workload.host.scale(), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    for what, raw, host in (("setup", setup, setup_host), ("round", wall, workload.host)):
        print(f"{name}: median {what} {raw:.6g} s, calibration loop "
              f"{host.median_loop_s() * 1e3:.4g} ms over {len(host.samples)} "
              f"samples", file=sys.stderr)
    return [workload], metrics


def traced(name: str, seed: int, seconds: float):
    """Alternate plain and traced rounds of the named workload, then trace
    one round of every other workload so each layer is reported."""
    from workloads import NULL_TRACER, WORKLOADS, Tracer, write_traces
    tracers = {n: Tracer() for n in WORKLOADS}

    def traced_round(w):
        with tracers[w.name].span(f"{w.name}.round"):
            return w.run_round(w.prepare_round(), tracers[w.name])

    main = WORKLOADS[name](seed)
    plain, spanned = [], []
    while not plain or sum(plain) + sum(spanned) + plain[-1] + spanned[-1] <= seconds:
        plain.append(main.run_round(main.prepare_round(), NULL_TRACER))
        spanned.append(traced_round(main))
    workloads = [main] + [WORKLOADS[other](seed) for other in WORKLOADS
                          if other != name]
    for w in workloads[1:]:
        traced_round(w)
    metrics = {"trace.overhead_s":
               (statistics.median(spanned) - statistics.median(plain), "s")}
    for w in workloads:
        w.trace_apart(tracers[w.name])
        metrics.update(w.layer_metrics(tracers[w.name]))
    write_traces(TRACE_DIR / f"trace-{name}-seed{seed}.json", tracers)
    return workloads, metrics


def main(argv=None) -> int:
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, warm_up
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    warm_up()
    run = traced if args.trace else untraced
    workloads, metrics = run(args.workload, args.seed, args.seconds)

    problems = [f"{w.name}: {p}" for w in workloads for p in w.check()]
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(w.attempted for w in workloads),
        "failed": sum(w.failed for w in workloads),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
