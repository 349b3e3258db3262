"""Command-line interface: run experiments without writing code.

Usage::

    python -m repro run <workload> [--scheme SCHEME] [--seed N]
    python -m repro compare <workload> [--seeds N]
    python -m repro fig7 | fig8 | headline [--seeds N] [--jobs N]
    python -m repro lineage <workload> [--scheme SCHEME]

``--jobs N`` fans the (workload x scheme x seed) matrix out over N
worker processes; cells are independent seeded simulations, so the
output is identical to a sequential run.  ``REPRO_JOBS`` sets the
default.

This module is the light front: the root parser, the static name
registry and the sub-command table.  What a command runs is imported
when the command is dispatched, so ``--help``, an unknown name or
``repro lint`` never builds a cluster's import graph (DESIGN.md
section 5, "Import cost follows use").
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from importlib import import_module
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError, WorkloadError

# What the parser and argument errors need of the live registries
# (``all_workloads()``, ``all_schemes()``, ``backend_names()``), without
# importing them; tests/test_import_graph.py holds the two equal.
WORKLOADS = ("wordcount", "sort", "terasort", "pagerank", "naivebayes")
SCHEMES = (
    "spark", "centralized", "aggshuffle", "iridiumlike", "premerge",
    "remoteshuffle", "blobshuffle",
)
BACKENDS = ("fetch", "push_aggregate", "pre_merge", "remote", "blob")

# The sub-command table, in ``--help`` order: each module of
# repro.experiments.commands declares its sub-command(s) and arguments
# next to the function that runs them, and imports the simulator only
# inside that function.  ``figures`` is compare, fig7, fig8, headline.
_COMMANDS = "repro.experiments.commands"
COMMAND_MODULES = ("run", "stream", "lint", "fuzz", "figures", "lineage")


@contextmanager
def usage_errors(flag: str = "") -> Iterator[None]:
    """A specification the library rejects inside the block ends the
    command with the library's message, which names the offending
    token, after the flag it came in by."""
    try:
        yield
    except (ConfigurationError, WorkloadError) as error:
        raise SystemExit(f"{flag}: {error}" if flag else str(error)) from None


def _check_names(args: argparse.Namespace) -> None:
    """Reject an unknown workload, scheme or backend from the static
    registry, before the command's imports."""
    workload = getattr(args, "workload", None)
    if workload is not None and workload.lower() not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    scheme = getattr(args, "scheme", None)
    if scheme is not None and scheme.lower() not in SCHEMES:
        raise SystemExit(
            f"unknown scheme {scheme!r} (choose from: {', '.join(SCHEMES)})"
        )
    for backend in (getattr(args, "backends", None) or "").split(","):
        if backend and backend not in BACKENDS:
            raise SystemExit(
                f"--backends: unknown backend {backend!r} "
                f"(choose from: {', '.join(BACKENDS)})"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimizing Shuffle in Wide-Area Data "
            "Analytics' (ICDCS 2017)"
        ),
    )
    parser.add_argument(
        "--profile", nargs="?", const=25, type=int, default=None, metavar="N",
        help="profile the command under cProfile and print the top N "
        "functions by cumulative time (default 25) after the normal "
        "output — pair with the fabric perf counters to localise "
        "simulator hot spots",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name in COMMAND_MODULES:
        import_module(f"{_COMMANDS}.{name}").add_arguments(commands)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _check_names(args)
    if args.profile is None:
        return args.func(args)
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = args.func(args)
    finally:
        profiler.disable()
        print(f"\ncProfile — top {args.profile} by cumulative time")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        stats.print_stats(args.profile)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
