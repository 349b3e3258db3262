#!/usr/bin/env python3
"""The benchmark command ``BENCHMARK.json`` declares.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Runs from the root of a checkout; the simulator is pure Python, so
"building" is importing ``src/repro``.  Prints the result object as the
last line of standard output and exits non-zero if a correctness check
fails.  See ``harness.py`` for what is measured and README.md for the
metric glossary.
"""

import os
import sys


def main() -> int:
    # One thread, whatever BLAS numpy was built against; must be set
    # before numpy is first imported.
    for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    # Replace the script's own directory: its module names (metrics,
    # workloads) must not shadow top-level imports.
    sys.path[0:1] = [os.path.join(root, "src"), root]
    from benchmarks.e2e import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
