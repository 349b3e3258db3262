"""Ablation — aggregating into k datacenters instead of one.

§III-B aggregates "to a subset of datacenters ... without loss of
generality, to a single datacenter as an example".  This ablation
sweeps the subset size k for the Sort workload: k=1 minimises cross-DC
traffic in later stages; larger k spreads receiver load but re-scatters
shuffle input.
"""

import dataclasses
import os

from benchmarks.matrix_cache import emit
from repro.cluster.builder import ec2_six_region_spec
from repro.cluster.context import ClusterContext
from repro.config import ShuffleConfig
from repro.experiments.placement import skewed_block_placement
from repro.experiments.runner import generated_input
from repro.experiments.schemes import Scheme, config_for_scheme
from repro.simulation import RandomSource
from repro.workloads import Sort


def _run_with_subset(subset_size: int, seed: int):
    workload = Sort()
    spec = ec2_six_region_spec()
    config = config_for_scheme(Scheme.AGGSHUFFLE, workload.spec, seed)
    config = dataclasses.replace(
        config,
        shuffle=ShuffleConfig(
            backend="push_aggregate", aggregation_subset_size=subset_size
        ),
    )
    context = ClusterContext(spec, config)
    partitions = generated_input(workload, seed)
    placement = skewed_block_placement(
        spec, RandomSource(seed).child("placement:Sort"), len(partitions)
    )
    workload.install(context, partitions, placement_hosts=placement)
    started = context.sim.now
    workload.run(context)
    duration = context.sim.now - started
    traffic = context.traffic.cross_dc_megabytes
    context.shutdown()
    return duration, traffic


def test_aggregation_subset_sweep(benchmark):
    seeds = range(max(1, int(os.environ.get("REPRO_SEEDS", "10")) // 2))
    subset_sizes = (1, 2, 3, 6)

    def sweep():
        rows = {}
        for k in subset_sizes:
            runs = [_run_with_subset(k, seed) for seed in seeds]
            rows[k] = (
                sum(d for d, _t in runs) / len(runs),
                sum(t for _d, t in runs) / len(runs),
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation — aggregation subset size k (Sort workload)",
        f"{'k':>3}{'JCT (s)':>10}{'cross-DC MB':>14}",
    ]
    for k, (jct, traffic) in rows.items():
        lines.append(f"{k:>3}{jct:>10.1f}{traffic:>14.1f}")
    emit("ablation_subset.txt", lines)
    # k=1 moves less later-stage data than scattering over all 6 DCs.
    assert rows[1][1] <= rows[6][1] * 1.25
