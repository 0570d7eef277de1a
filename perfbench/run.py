#!/usr/bin/env python3
"""Benchmark of the friedrichs package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`.
After an untimed warm-up pass, the workload runs closed-loop, one pass
after another, for S seconds, and every pass's outputs are checked. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The environment
block is printed on the line before it.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the keys of workloads.WORKLOADS, which cannot be imported before pinning
WORKLOADS = ("threshold_sweep", "gapped_probe", "verification_suite",
             "threshold_sweep_pool")
BLAS_THREADS = 1


def pin_blas_threads():
    """One BLAS thread, so threads x pool processes stays within nproc.

    Children inherit it; it must be set before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "friedrichs", "__init__.py")):
        print(f"no package source at {src}/friedrichs", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, src)
    import bench  # after pinning: bench imports numpy
    bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
              blas_threads=BLAS_THREADS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
