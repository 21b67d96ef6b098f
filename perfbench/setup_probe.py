"""Time one fresh-process set-up: import the package and make the inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the set-up time in seconds.  `run.py` runs it in fresh processes
and reports the median as `setup_s`.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - start))
