"""``repro lineage``: a workload's RDD lineage DAG, as the scheme's
shuffle backend rewrites it."""

from __future__ import annotations

import argparse

from repro.experiments.commands import scheme_by_name


def add_arguments(commands) -> None:
    lineage = commands.add_parser(
        "lineage", help="dump a workload's RDD lineage DAG"
    )
    lineage.add_argument("workload")
    lineage.add_argument("--scheme", default="aggshuffle")
    lineage.set_defaults(func=cmd_lineage)


def cmd_lineage(args: argparse.Namespace) -> int:
    from repro.experiments.placement import skewed_block_placement
    from repro.experiments.runner import ExperimentPlan, generated_input
    from repro.experiments.schemes import config_for_scheme
    from repro.cluster.context import ClusterContext
    from repro.metrics.reporting import lineage_dump
    from repro.simulation import RandomSource
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload)
    scheme = scheme_by_name(args.scheme)
    plan = ExperimentPlan()
    config = config_for_scheme(scheme, workload.spec, 0)
    context = ClusterContext(plan.cluster, config)
    partitions = generated_input(workload, 0)
    placement = skewed_block_placement(
        plan.cluster,
        RandomSource(0).child(f"placement:{workload.name}"),
        len(partitions),
    )
    workload.install(context, partitions, placement_hosts=placement)
    rdd = workload.build(context)
    # Apply the backend's lineage rewrite (e.g. implicit transfer_to
    # insertion for push_aggregate) so the dump shows what actually runs.
    rdd = context.shuffle_service.prepare_job(rdd)
    print(lineage_dump(rdd))
    context.shutdown()
    return 0
