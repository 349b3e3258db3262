"""Host failure between jobs: lost state, partial recomputation.

The paper's fault-tolerance argument (§II-A / §IV-E) rests on what
survives a failure where: with fetch-based shuffle the input lives with
the mappers; with Push/Aggregate it lives in the aggregator datacenter,
while the *staged* map output still exists at the producers, so losing a
receiver host costs one re-push rather than a map re-execution.
"""

import pytest

from repro.errors import BlockNotFoundError, ConfigurationError
from tests.conftest import make_context


def a_hosts():
    return ["dc-a-w0", "dc-a-w1"]


def test_fail_host_reports_losses(fetch_context):
    context = fetch_context
    context.write_input_file("/in", [[("a", 1)], [("b", 2)]])
    context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    report = context.fail_host("dc-a-w0")
    assert report["map_outputs_lost"] >= 0
    assert "dc-a-w0" not in context.executors
    assert len(context.executors) == 3


def test_fail_unknown_host_rejected(fetch_context):
    with pytest.raises(ConfigurationError):
        fetch_context.fail_host("ghost")


def test_fail_host_twice_rejected(fetch_context):
    fetch_context.write_input_file("/in", [[1]])
    fetch_context.fail_host("dc-b-w1")
    with pytest.raises(ConfigurationError):
        fetch_context.fail_host("dc-b-w1")


def test_jobs_continue_on_surviving_hosts(fetch_context):
    context = fetch_context
    context.write_input_file(
        "/in", [[("a", 1)], [("b", 2)]], placement_hosts=a_hosts()
    )
    context.fail_host("dc-b-w0")
    context.fail_host("dc-b-w1")
    result = dict(
        context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    )
    assert result == {"a": 1, "b": 2}


def test_lost_map_output_recomputed_partially():
    """Only the failed host's partitions re-run on the next job."""
    # Input on dc-a hosts; replication 2 so input survives the failure.
    context = make_context(dfs_replication=2)
    context.write_input_file(
        "/in",
        [[("a", 1)], [("b", 2)], [("c", 3)], [("d", 4)]],
        placement_hosts=["dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1"],
    )
    reduced = context.text_file("/in").reduce_by_key(lambda a, b: a + b)
    first = dict(reduced.collect())
    stages_before = len(context.metrics.job.stages)

    report = context.fail_host("dc-a-w0")
    assert report["map_outputs_lost"] == 2  # its two map partitions

    second = dict(reduced.map(lambda kv: kv).collect())
    assert second == first
    # The re-run shuffle-map stage executed only the 2 lost partitions.
    new_spans = context.metrics.job.stages[stages_before:]
    map_spans = [s for s in new_spans if s.kind == "shuffle_map"]
    assert len(map_spans) == 1
    assert len(map_spans[0].tasks) == 2


def test_lost_receiver_host_recovers_by_repush():
    """Push mode: losing an aggregator host re-pushes staged data
    without re-running any map task (the producers still hold it)."""
    context = make_context(push=True)
    context.write_input_file(
        "/in",
        [[("a", 1)], [("b", 2)], [("c", 3)], [("d", 4)]],
        placement_hosts=a_hosts() * 2,
    )
    reduced = (
        context.text_file("/in")
        .transfer_to("dc-b")
        .reduce_by_key(lambda a, b: a + b)
    )
    first = dict(reduced.collect())
    stages_before = len(context.metrics.job.stages)

    context.fail_host("dc-b-w0")
    second = dict(reduced.map(lambda kv: kv).collect())
    assert second == first
    new_spans = context.metrics.job.stages[stages_before:]
    # Receiver partitions re-ran; the producer stage did not.
    kinds = [s.kind for s in new_spans]
    assert "transfer_producer" not in kinds or all(
        not s.tasks for s in new_spans if s.kind == "transfer_producer"
    )
    receiver_spans = [
        s for s in new_spans if s.kind == "shuffle_map" and s.tasks
    ]
    assert receiver_spans  # some receivers re-pulled
    context.shutdown()


def test_cached_partitions_on_failed_host_recompute():
    context = make_context(dfs_replication=2)
    context.write_input_file(
        "/in", [[1], [2]], placement_hosts=["dc-a-w0", "dc-a-w1"]
    )
    rdd = context.text_file("/in").map(lambda x: x * 10).cache()
    assert rdd.collect() == [10, 20]
    entries_before = context.cache.entry_count
    context.fail_host("dc-a-w0")
    assert context.cache.entry_count < entries_before
    assert rdd.collect() == [10, 20]  # recomputed transparently


def test_unreplicated_input_loss_surfaces(fetch_context):
    context = fetch_context
    context.write_input_file(
        "/in", [[1]], placement_hosts=["dc-a-w0"]
    )
    context.fail_host("dc-a-w0")
    with pytest.raises(BlockNotFoundError):
        context.text_file("/in").collect()


def test_replicated_input_survives():
    context = make_context(dfs_replication=2)
    context.write_input_file(
        "/in", [[7]], placement_hosts=["dc-a-w0", "dc-b-w0"]
    )
    context.fail_host("dc-a-w0")
    assert context.text_file("/in").collect() == [7]
