"""Edge cases across the whole stack."""

import dataclasses

import pytest

from repro.cluster.context import ClusterContext
from repro.config import FailureConfig, ShuffleConfig
from repro.errors import (
    ConfigurationError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
    TaskFailedError,
)
from repro.scheduler import task_runner
from tests.conftest import quiet_config, small_spec


def test_text_file_on_missing_path_raises(fetch_context):
    with pytest.raises(FileNotFoundInDFSError):
        fetch_context.text_file("/nope")


def test_save_to_existing_path_fails_loudly(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [[1]])
    context.text_file("/in").save_as_file("/out")
    with pytest.raises(FileExistsInDFSError):
        context.text_file("/in").save_as_file("/out")


def test_save_requires_path(fetch_context):
    fetch_context.write_input_file("/in", [[1]])
    with pytest.raises(ConfigurationError):
        fetch_context.run_save(fetch_context.text_file("/in"), "")


def test_single_partition_job(fetch_context):
    fetch_context.write_input_file("/one", [[("k", 1), ("k", 2)]])
    result = dict(
        fetch_context.text_file("/one")
        .reduce_by_key(lambda a, b: a + b, num_partitions=1)
        .collect()
    )
    assert result == {"k": 3}


def test_empty_partitions_through_shuffle(fetch_context):
    fetch_context.write_input_file("/sparse", [[], [("a", 1)], [], []])
    result = dict(
        fetch_context.text_file("/sparse")
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )
    assert result == {"a": 1}


def test_all_empty_input(fetch_context):
    fetch_context.write_input_file("/empty", [[], []])
    assert fetch_context.text_file("/empty").collect() == []


def test_task_exhausts_retries_and_job_fails(monkeypatch):
    """Failure probability 1 with more injections than attempts."""
    failures = FailureConfig(
        reducer_failure_probability=1.0,
        max_injected_failures_per_task=10,
    )
    monkeypatch.setattr(task_runner, "MAX_TASK_ATTEMPTS", 2)
    config = quiet_config(failures=failures)
    context = ClusterContext(small_spec(), config)
    context.write_input_file("/in", [[("a", 1)], [("b", 2)]])
    with pytest.raises(TaskFailedError):
        context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    context.shutdown()


def test_subset_aggregation_end_to_end():
    """k=2 aggregation spreads receivers over two datacenters."""
    spec = small_spec(datacenters=("d1", "d2", "d3"), workers_per_datacenter=2)
    config = dataclasses.replace(
        quiet_config(push=True),
        shuffle=ShuffleConfig(
            backend="push_aggregate", aggregation_subset_size=2
        ),
    )
    context = ClusterContext(spec, config)
    context.write_input_file(
        "/in", [[(f"k{i}", 1)] for i in range(6)],
        placement_hosts=[f"d{1 + i % 3}-w0" for i in range(6)],
    )
    result = dict(
        context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    )
    assert result == {f"k{i}": 1 for i in range(6)}
    # Shuffle output must live in at most two datacenters.
    hosts = set()
    for shuffle_id in range(10_000):
        if context.map_output_tracker.is_complete(shuffle_id):
            for status in context.map_output_tracker.map_statuses(shuffle_id):
                hosts.add(context.topology.datacenter_of(status.host))
    assert 1 <= len(hosts) <= 2
    context.shutdown()


def test_unpersist_via_cache_eviction(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [[1], [2]])
    rdd = context.text_file("/in").map(lambda x: x).cache()
    rdd.collect()
    assert context.cache.entry_count == 2
    for host in list(context.executors):
        context.cache.evict_host(host)
    assert context.cache.entry_count == 0
    # Still computes correctly after eviction.
    assert rdd.collect() == [1, 2]


def test_deep_narrow_chain(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [[0]])
    rdd = context.text_file("/in")
    for _ in range(50):
        rdd = rdd.map(lambda x: x + 1)
    assert rdd.collect() == [50]


def test_many_small_shuffles_in_sequence(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [[("a", 1), ("b", 2)]])
    rdd = context.text_file("/in")
    for _ in range(5):
        rdd = rdd.reduce_by_key(lambda a, b: a + b).map(lambda kv: kv)
    assert dict(rdd.collect()) == {"a": 1, "b": 2}


def test_job_after_failed_job_still_works(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [[1, 2]])

    def explode(_record):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        context.text_file("/in").map(explode).collect()
    # The scheduler and executors must be clean for the next job.
    assert context.text_file("/in").map(lambda x: x * 2).collect() == [2, 4]
    for executor in context.executors.values():
        assert executor.busy == 0
