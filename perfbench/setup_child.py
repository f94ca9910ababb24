"""One cold set-up of a workload, in a fresh interpreter.

    python3 perfbench/setup_child.py WORKLOAD SEED TINY WORKDIR

Imports heavinet from ``src/``, and numpy and scipy with it, builds the
workload's item list from the seed, and prints the wall time of both in ns.
run.py starts it several times, one after another and with BLAS pinned to
one thread, to measure ``setup_s``: only a fresh interpreter pays the full
import cost of heavinet and its dependencies every time.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter_ns()
import workloads  # noqa: E402  (the import is part of the set-up)

name, seed, tiny, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
hv = workloads.import_heavinet()
workloads.make_workload(name, workdir).make_items(hv, seed, tiny)
print(time.perf_counter_ns() - t0)
