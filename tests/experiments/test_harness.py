"""Placement, centralization, schemes, and the run matrix."""

import dataclasses

import pytest

from repro.cluster.builder import ec2_six_region_spec
from repro.experiments.centralize import centralize_input
from repro.experiments.placement import skewed_block_placement
from repro.experiments.runner import (
    ExperimentPlan,
    clear_data_cache,
    generated_input,
    run_workload_once,
)
from repro.experiments.schemes import Scheme, config_for_scheme
from repro.simulation import RandomSource
from repro.workloads import SORT, Sort, WORDCOUNT
from tests.conftest import make_context, small_spec


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def test_skewed_placement_favours_hot_datacenter():
    spec = ec2_six_region_spec()
    hosts = skewed_block_placement(
        spec, RandomSource(0), num_blocks=600
    )
    hot = sum(1 for host in hosts if host.startswith("us-east-1"))
    # Expected share 8/13 ~ 0.615.
    assert 0.5 < hot / 600 < 0.75


def test_skewed_placement_deterministic():
    spec = ec2_six_region_spec()
    a = skewed_block_placement(spec, RandomSource(5), 50)
    b = skewed_block_placement(spec, RandomSource(5), 50)
    assert a == b


def test_skewed_placement_round_robins_hosts_within_dc():
    spec = ec2_six_region_spec()
    hosts = skewed_block_placement(spec, RandomSource(1), 200)
    east = [h for h in hosts if h.startswith("us-east-1")]
    # All four workers used.
    assert len({h for h in east}) == 4


def test_skewed_placement_validation():
    spec = ec2_six_region_spec()
    with pytest.raises(ValueError):
        skewed_block_placement(spec, RandomSource(0), 0)


# ----------------------------------------------------------------------
# Centralize
# ----------------------------------------------------------------------
def test_centralize_moves_all_blocks_to_destination():
    context = make_context()
    context.write_input_file(
        "/in", [[1], [2], [3], [4]],
        placement_hosts=["dc-a-w0", "dc-b-w0", "dc-b-w1", "dc-a-w1"],
    )
    elapsed = centralize_input(context, "/in", "dc-a")
    assert elapsed > 0
    for block_id in context.dfs.file_blocks("/in"):
        host = context.dfs.block_locations(block_id)[0]
        assert context.topology.datacenter_of(host) == "dc-a"
    # Records survive the relocation.
    records = sorted(
        record
        for block_id in context.dfs.file_blocks("/in")
        for record in context.dfs.read_block(block_id).records
    )
    assert records == [1, 2, 3, 4]
    assert context.traffic.cross_dc_by_tag["centralize"] > 0
    context.shutdown()


def test_centralize_local_blocks_stay_put():
    context = make_context()
    context.write_input_file(
        "/in", [[1]], placement_hosts=["dc-a-w0"]
    )
    centralize_input(context, "/in", "dc-a")
    assert context.traffic.cross_dc_by_tag.get("centralize", 0.0) == 0.0
    host = context.dfs.block_locations(context.dfs.file_blocks("/in")[0])[0]
    assert host == "dc-a-w0"
    context.shutdown()


def test_centralize_unknown_datacenter_rejected():
    context = make_context()
    context.write_input_file("/in", [[1]])
    with pytest.raises(Exception):
        centralize_input(context, "/in", "nowhere")
    context.shutdown()


# ----------------------------------------------------------------------
# Schemes and runner
# ----------------------------------------------------------------------
def test_scheme_configs():
    for scheme in Scheme:
        config = config_for_scheme(scheme, WORDCOUNT, seed=3)
        assert config.seed == 3
        assert config.cost.cpu_bytes_per_second == (
            WORDCOUNT.cpu_bytes_per_second
        )
        if scheme is Scheme.AGGSHUFFLE:
            assert config.shuffle.backend == "push_aggregate"
        else:
            assert config.shuffle.backend != "push_aggregate"


def test_generated_input_cached_per_workload_and_seed():
    clear_data_cache()
    workload = Sort(spec=dataclasses.replace(
        SORT, input_partitions=4, records_per_partition=3
    ))
    first = generated_input(workload, 1)
    second = generated_input(workload, 1)
    assert first is second
    different = generated_input(workload, 2)
    assert different is not first
    clear_data_cache()


def small_plan(seeds=(0,)):
    return ExperimentPlan(
        cluster=small_spec(
            datacenters=("dc-a", "dc-b", "dc-c"),
            workers_per_datacenter=2,
        ),
        seeds=seeds,
    )


def small_sort():
    return Sort(spec=dataclasses.replace(
        SORT, input_partitions=6, records_per_partition=10
    ))


def test_run_workload_once_returns_complete_result():
    clear_data_cache()
    result = run_workload_once(small_sort(), Scheme.SPARK, 0, small_plan())
    assert result.workload == "Sort"
    assert result.scheme is Scheme.SPARK
    assert result.duration > 0
    assert result.stages
    assert result.centralize_duration == 0.0
    clear_data_cache()


def test_centralized_run_includes_centralize_stage():
    clear_data_cache()
    result = run_workload_once(
        small_sort(), Scheme.CENTRALIZED, 0, small_plan()
    )
    assert result.centralize_duration > 0
    assert result.stages[0].name == "centralize-input"
    clear_data_cache()


def test_runs_are_deterministic():
    clear_data_cache()
    a = run_workload_once(small_sort(), Scheme.AGGSHUFFLE, 0, small_plan())
    b = run_workload_once(small_sort(), Scheme.AGGSHUFFLE, 0, small_plan())
    assert a.duration == b.duration
    assert a.cross_dc_megabytes == b.cross_dc_megabytes
    clear_data_cache()


def test_seeds_vary_results():
    clear_data_cache()
    a = run_workload_once(small_sort(), Scheme.SPARK, 0, small_plan())
    b = run_workload_once(small_sort(), Scheme.SPARK, 1, small_plan())
    assert a.duration != b.duration
    clear_data_cache()
