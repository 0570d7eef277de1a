"""Time one cold set-up of a workload in this fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports friedrichs (and with it numpy and scipy), resolves the workload's
config and builds its models, then prints the seconds that took. Run by
bench.py with the BLAS threads already pinned in the environment.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(workloads.make_inputs(int(sys.argv[2])))
print(time.perf_counter() - T0)
