"""Prints the seconds a fresh interpreter takes to import bpdp and warm up.

Run by run.py in a child process, several times per run, because import
cost can only be paid once per process.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports every bpdp module the workloads time)

workloads.warm_up()
print(repr(time.perf_counter() - T0))
