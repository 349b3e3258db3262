"""The ``repro`` sub-commands, one module each.

A module declares its command's arguments (``add_arguments``, called by
:func:`repro.cli.build_parser`) next to the function that runs it, and
imports nothing of the simulator at module level: what a command needs
it imports when it is dispatched, so building the parser — ``--help``,
an argument error — stays cheap.  The helpers here are shared by the
commands that run a cluster.
"""

from __future__ import annotations

import argparse


def scheme_by_name(name: str):
    """The :class:`~repro.experiments.schemes.Scheme` the front's static
    registry already accepted ``name`` for."""
    from repro.experiments.schemes import all_schemes

    return next(s for s in all_schemes() if s.value.lower() == name.lower())


def arm_sanitizer(args: argparse.Namespace):
    """Install the runtime invariant sanitizer when ``--sanitize`` was
    given (must happen before the cluster is built: components capture
    the sanitizer at construction).  Also returns the sanitizer armed
    by ``REPRO_SANITIZE`` so env-enabled runs report their check
    counts too."""
    from repro.analysis import sanitizer as sanitizer_module

    if args.sanitize:
        return sanitizer_module.enable()
    return sanitizer_module.get_sanitizer()


def print_sanitizer_report(sanitizer) -> None:
    if sanitizer is None:
        return
    counts = sanitizer.snapshot()
    print(
        "  sanitizer       : all invariants held — "
        + ", ".join(
            f"{name} x{count:.0f}" for name, count in sorted(counts.items())
        )
    )
