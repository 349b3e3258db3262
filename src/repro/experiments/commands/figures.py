"""``repro compare | fig7 | fig8 | headline``: the paper's tables."""

from __future__ import annotations

import argparse


def add_arguments(commands) -> None:
    compare = commands.add_parser(
        "compare", help="compare the three schemes on one workload"
    )
    compare.add_argument("workload")
    compare.add_argument("--seeds", type=int, default=3)
    compare.set_defaults(func=cmd_compare)

    for name, func, help_text in (
        ("fig7", cmd_fig7, "regenerate Fig. 7 (job completion times)"),
        ("fig8", cmd_fig8, "regenerate Fig. 8 (cross-DC traffic)"),
        ("headline", cmd_headline, "the paper's headline reductions"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--seeds", type=int, default=10)
        sub.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes for the run matrix "
            "(default: $REPRO_JOBS or sequential)",
        )
        sub.set_defaults(func=func)


def _plan(seeds: int):
    from repro.experiments.runner import ExperimentPlan

    return ExperimentPlan(seeds=tuple(range(seeds)))


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_workload_once
    from repro.experiments.schemes import PAPER_SCHEMES
    from repro.metrics.reporting import format_table
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload)
    plan = _plan(args.seeds)
    rows = []
    for scheme in PAPER_SCHEMES:
        runs = [
            run_workload_once(workload, scheme, seed, plan)
            for seed in plan.seeds
        ]
        jct = sum(r.duration for r in runs) / len(runs)
        traffic = sum(r.cross_dc_megabytes for r in runs) / len(runs)
        rows.append([scheme.value, f"{jct:.1f}", f"{traffic:.1f}"])
    print(format_table(["scheme", "JCT (s)", "cross-DC MB"], rows))
    return 0


def _matrix(args: argparse.Namespace):
    from repro.experiments.runner import run_matrix
    from repro.experiments.schemes import PAPER_SCHEMES
    from repro.workloads import all_workloads

    return run_matrix(
        all_workloads(), list(PAPER_SCHEMES), _plan(args.seeds), jobs=args.jobs
    )


def _print_by_scheme(title: str, figure, cell) -> None:
    """One row per workload, one ``cell(by_scheme, scheme name)`` per
    paper scheme."""
    from repro.experiments.schemes import PAPER_SCHEMES
    from repro.metrics.reporting import format_table

    names = [scheme.value for scheme in PAPER_SCHEMES]
    rows = [
        [workload] + [cell(by_scheme, name) for name in names]
        for workload, by_scheme in figure.items()
    ]
    print(title)
    print(format_table(["workload"] + names, rows))


def cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments.figures import fig7_job_completion_times

    _print_by_scheme(
        "Fig. 7 — trimmed-mean JCT (s)",
        fig7_job_completion_times(_matrix(args)),
        lambda by_scheme, name: f"{by_scheme[name].trimmed:.1f}",
    )
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments.figures import fig8_cross_dc_traffic

    _print_by_scheme(
        "Fig. 8 — cross-DC traffic (MB)",
        fig8_cross_dc_traffic(_matrix(args)),
        lambda by_scheme, name: f"{by_scheme.get(name, 0):.1f}",
    )
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    from repro.experiments.figures import headline_numbers
    from repro.metrics.reporting import format_table

    rows = [
        [
            workload,
            f"{entry['jct_reduction_pct']:.1f}",
            f"{entry.get('traffic_reduction_pct', float('nan')):.1f}",
        ]
        for workload, entry in headline_numbers(_matrix(args)).items()
    ]
    print(format_table(
        ["workload", "JCT reduction %", "traffic reduction %"], rows
    ))
    return 0
