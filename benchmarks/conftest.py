"""Benchmark-suite options.

``--smoke`` shrinks the run matrix to a single seed (unless the caller
already pinned ``REPRO_SEEDS``) so CI can execute the benchmarks on
every push: the figures lose statistical weight, but every assertion —
including the backend perf-counter guards — still runs against a real
end-to-end simulation.
"""

from __future__ import annotations

import os


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="single-seed benchmark runs for CI (respects REPRO_SEEDS)",
    )


def pytest_configure(config):
    if config.getoption("--smoke"):
        os.environ.setdefault("REPRO_SEEDS", "1")
        # Engine microbenchmark: shrink the churn matrix and relax the
        # absolute speedup threshold to an ordering check (the vector
        # drive must not be slower than the global oracle).
        os.environ.setdefault("REPRO_SMOKE", "1")
