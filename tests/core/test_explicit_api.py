"""The explicit developer API: push shuffle without implicit embedding.

§IV-E ("Implicit vs. Explicit Embedding"): developers may control data
placement themselves.  These tests run on the fetch backend, which
embeds nothing — no transfer is inserted unless the program calls
``transfer_to`` itself.
"""


import pytest

from repro.cluster.context import ClusterContext
from repro.config import ShuffleConfig, SimulationConfig
from repro.scheduler.stage import StageKind, build_stages
from tests.conftest import small_spec


def explicit_context(seed=0):
    config = SimulationConfig(
        seed=seed,
        shuffle=ShuffleConfig(backend="fetch"),
        jitter=None,
    )
    return ClusterContext(small_spec(), config)


def test_no_transfer_inserted_without_explicit_call():
    context = explicit_context()
    context.write_input_file("/in", [[("a", 1)], [("b", 2)]])
    rdd = context.text_file("/in").reduce_by_key(lambda a, b: a + b)
    rdd.collect()
    _result, stages = build_stages(rdd)
    kinds = {stage.kind for stage in stages}
    assert StageKind.TRANSFER_PRODUCER not in kinds
    context.shutdown()


def test_explicit_transfer_controls_placement():
    context = explicit_context()
    context.write_input_file(
        "/in", [[("a", 1)], [("a", 2)]],
        placement_hosts=["dc-a-w0", "dc-a-w1"],
    )
    reduced = (
        context.text_file("/in")
        .transfer_to("dc-b")
        .reduce_by_key(lambda a, b: a + b)
    )
    assert dict(reduced.collect()) == {"a": 3}
    tracker = context.map_output_tracker
    shuffle_id = reduced.shuffle_dependency.shuffle_id
    for status in tracker.map_statuses(shuffle_id):
        assert context.topology.datacenter_of(status.host) == "dc-b"
    context.shutdown()


def test_cache_after_aggregation_is_datacenter_local():
    """§IV-E's caching example: persisting *after* the transfer pins the
    cached dataset inside one datacenter, so reuse never crosses the WAN."""
    context = explicit_context()
    context.write_input_file(
        "/in", [[("k", i)] for i in range(4)],
        placement_hosts=["dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1"],
    )
    aggregated = (
        context.text_file("/in")
        .transfer_to("dc-b")
        .group_by_key()
        .cache()
    )
    aggregated.collect()  # materialises the cache in dc-b
    for partition in range(aggregated.num_partitions):
        entry = context.cache.lookup(aggregated.rdd_id, partition)
        # Empty reduce partitions carry no locality preference and may
        # be cached anywhere; the data-bearing ones must sit in dc-b.
        if entry is not None and entry.records:
            assert context.topology.datacenter_of(entry.host) == "dc-b"

    cross_before = context.traffic.cross_dc_bytes
    # Reuse the cached dataset twice; nothing may cross datacenters
    # except the (tiny) results heading to the dc-a driver.
    for _ in range(2):
        aggregated.map_values(len).collect()
    crossed = context.traffic.cross_dc_bytes - cross_before
    result_bytes = context.traffic.cross_dc_by_tag.get("result", 0.0)
    assert crossed == pytest.approx(min(crossed, result_bytes + 1e-6))
    context.shutdown()


def test_cache_before_aggregation_pays_wan_on_reuse():
    """The §IV-E anti-pattern: caching scattered data charges the WAN
    every time the dataset is reused from a remote task."""
    context = explicit_context()
    context.write_input_file(
        "/in", [[("k", 1)], [("k", 2)], [("k", 3)], [("k", 4)]],
    )
    scattered = context.text_file("/in").map(lambda kv: kv).cache()
    scattered.collect()
    # Force reuse from a single datacenter via an explicit transfer.
    cross_before = context.traffic.cross_dc_by_tag.get("cache", 0.0)
    scattered_sum_1 = dict(
        scattered.transfer_to("dc-b").reduce_by_key(lambda a, b: a + b).collect()
    )
    assert scattered_sum_1 == {"k": 10}
    context.shutdown()


def test_mixed_explicit_and_plain_shuffles():
    """One shuffle aggregated explicitly, a later one left fetch-based."""
    context = explicit_context()
    context.write_input_file("/in", [[("a", 1), ("b", 2)], [("a", 3)]])
    first = (
        context.text_file("/in")
        .transfer_to("dc-b")
        .reduce_by_key(lambda a, b: a + b)
    )
    second = first.map(lambda kv: (kv[1] % 2, 1)).reduce_by_key(
        lambda a, b: a + b
    )
    result = dict(second.collect())
    assert result == {0: 2}  # totals 4 and 2 are both even
    context.shutdown()
