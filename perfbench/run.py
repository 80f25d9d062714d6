"""Benchmark command: one workload in its own process, one JSON line out.

    python3 perfbench/run.py --workload crit6 --seed 1 --seconds 32 --trace 0

Run from the repository root.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
exit code is 0 only if every check of the program's outputs passed.  BLAS is
pinned to one thread unless ``--blas-threads default`` is given.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The names of perfbench.workloads.WORKLOADS, repeated because importing that
# module imports numpy, which has to wait until the BLAS variables are set.
WORKLOAD_NAMES = ("crit6", "large", "large_noshift")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1",
                        help="BLAS thread count, or 'default' to leave it to the library")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.blas_threads != "default":  # before numpy is first imported
        for var in BLAS_VARS:
            os.environ[var] = args.blas_threads
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.bench import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), _T0,
                 root / "perfbench" / "out")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
