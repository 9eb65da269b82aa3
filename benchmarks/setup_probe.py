"""One cold set-up, timed: import the package, build the workload's field
tables and curve objects, and print the seconds taken.

    python3 benchmarks/setup_probe.py <workload>

run.py starts this several times, one after another, for setup_s.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports the package, so it is timed)

workloads.WORKLOADS[sys.argv[1]].setup()
print(repr(time.perf_counter() - start))
