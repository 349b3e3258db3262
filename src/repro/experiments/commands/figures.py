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


def _print_figure(args: argparse.Namespace, name: str) -> int:
    """Aggregate and render through :data:`repro.experiments.figures.FIGURES`,
    the code that writes the tracked tables."""
    from repro.experiments.figures import FIGURES

    aggregate, render = FIGURES[name]
    print("\n".join(render(aggregate(_matrix(args)))))
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    return _print_figure(args, "fig7")


def cmd_fig8(args: argparse.Namespace) -> int:
    return _print_figure(args, "fig8")


def cmd_headline(args: argparse.Namespace) -> int:
    return _print_figure(args, "headline")
