"""``repro fuzz``: the coverage-guided chaos campaign."""

from __future__ import annotations

import argparse

from repro.cli import usage_errors


def add_arguments(commands) -> None:
    fuzz = commands.add_parser(
        "fuzz",
        help="chaos campaign: coverage-guided fault fuzzing of the "
        "backend x policy matrix under invariant oracles (DESIGN.md §15)",
    )
    fuzz.add_argument(
        "--schedules", type=int, default=50,
        help="schedule budget (default 50)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--max-wall-seconds", type=float, default=None,
        help="stop drawing new schedules after this much wall time",
    )
    fuzz.add_argument(
        "--backends", default=None,
        help="comma-separated backends to fuzz (default: all registered)",
    )
    fuzz.add_argument(
        "--policies", default=None,
        help="comma-separated policies: baseline, health, speculate "
        "(default: all three)",
    )
    fuzz.add_argument(
        "--full-matrix", action="store_true",
        help="run every schedule against every backend x policy column "
        "(default: rotate one column per schedule)",
    )
    fuzz.add_argument(
        "--no-minimize", action="store_true",
        help="report raw failing schedules without ddmin minimization",
    )
    fuzz.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="write a replayable JSON artifact per finding "
        "(replay with `repro run --chaos @<artifact>`)",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the cell matrix "
        "(default: $REPRO_JOBS or sequential)",
    )
    fuzz.add_argument(
        "--smoke", action="store_true",
        help="CI preset: fixed seed 0, 200-schedule budget",
    )
    fuzz.set_defaults(func=cmd_fuzz)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.failures.campaign import POLICIES, CampaignConfig, run_campaign

    schedules = args.schedules
    seed = args.seed
    if args.smoke:
        # CI preset: fixed seed, bounded budget, full oracle + minimizer.
        schedules = 200
        seed = 0
    policies = tuple(t for t in (args.policies or "").split(",") if t)
    config = CampaignConfig(
        seed=seed,
        schedules=schedules,
        max_wall_seconds=args.max_wall_seconds,
        # Checked against the front's static registry already.
        backends=tuple(t for t in (args.backends or "").split(",") if t),
        rotate=not args.full_matrix,
        minimize=not args.no_minimize,
        artifact_dir=args.artifact_dir,
        policies=policies or POLICIES,
    )
    with usage_errors():
        config.validate()
        report = run_campaign(config, jobs=args.jobs)
    print(report.format_summary())
    return 1 if report.findings else 0
