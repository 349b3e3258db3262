"""RDD error paths and boundary conditions."""

import pytest

from repro.errors import PartitionError
from tests.conftest import make_context


def test_hadoop_rdd_partition_out_of_range(fetch_context):
    fetch_context.write_input_file("/in", [[1], [2]])
    rdd = fetch_context.text_file("/in")
    with pytest.raises(PartitionError):
        rdd.block_id(5)


def test_parallelize_requires_positive_slices(fetch_context):
    with pytest.raises(PartitionError):
        fetch_context.parallelize([1, 2], num_slices=0)


def test_parallelize_distributes_round_robin(fetch_context):
    rdd = fetch_context.parallelize(list(range(7)), num_slices=3)
    assert rdd.num_partitions == 3
    collected = rdd.collect()
    assert sorted(collected) == list(range(7))


def test_lineage_of_diamond_graph(fetch_context):
    fetch_context.write_input_file("/in", [[("a", 1)]])
    base = fetch_context.text_file("/in").reduce_by_key(lambda a, b: a + b)
    left = base.map(lambda kv: kv)
    right = base.map_values(lambda v: v)
    joined = left.cogroup(right)
    lineage = joined.lineage()
    # The shared ancestor appears exactly once.
    ids = [node.rdd_id for node in lineage]
    assert len(ids) == len(set(ids))
    assert base.rdd_id in ids


def test_transfer_to_on_shuffled_rdd(fetch_context):
    """Explicit transfer of post-shuffle data (re-aggregation)."""
    context = make_context(push=True)
    context.write_input_file("/in", [[("a", 1)], [("b", 2)]])
    reduced = context.text_file("/in").reduce_by_key(lambda a, b: a + b)
    moved = reduced.transfer_to("dc-b")
    assert sorted(moved.collect()) == [("a", 1), ("b", 2)]
    context.shutdown()


def test_map_values_preserves_partitioner(fetch_context):
    fetch_context.write_input_file("/in", [[("a", 1)]])
    reduced = fetch_context.text_file("/in").reduce_by_key(lambda a, b: a + b)
    mapped = reduced.map_values(lambda v: v)
    assert mapped.partitioner is reduced.partitioner


def test_map_does_not_preserve_partitioner(fetch_context):
    fetch_context.write_input_file("/in", [[("a", 1)]])
    reduced = fetch_context.text_file("/in").reduce_by_key(lambda a, b: a + b)
    assert reduced.map(lambda kv: kv).partitioner is None
