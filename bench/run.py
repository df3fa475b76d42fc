"""Offline train-and-decode benchmark for ordernet.

Run from the root of a source checkout:

    python3 bench/run.py --workload lstm-greedy --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics of a traced run.  See
bench/README.md for the workloads and what each metric measures.
"""

import time

STARTED = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread, no more than nproc on any machine: matrices here are at most
# 800 wide and mostly vector @ matrix, too small to split across threads, and
# one thread keeps timings steady.  It must be set before numpy is imported.
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ordernet" / "__init__.py").is_file():
        print(f"error: no ordernet sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.main(args, STARTED)


if __name__ == "__main__":
    sys.exit(main())
