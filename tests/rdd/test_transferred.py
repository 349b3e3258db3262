"""transfer_to(): the paper's transformation, explicit usage."""


from repro.rdd.transferred import TransferredRDD
from tests.conftest import make_context, small_spec


def install(context, partitions, path="/in"):
    context.write_input_file(path, partitions)
    return context.text_file(path)


def test_transfer_to_preserves_records():
    context = make_context(push=True)
    rdd = install(context, [[1, 2], [3]])
    moved = rdd.transfer_to("dc-b")
    assert isinstance(moved, TransferredRDD)
    assert moved.num_partitions == rdd.num_partitions
    assert moved.collect() == [1, 2, 3]
    context.shutdown()


def test_explicit_destination_moves_data_to_that_datacenter():
    context = make_context(push=True)
    rdd = install(context, [[("k", 1)], [("k", 2)]])
    moved = rdd.transfer_to("dc-b")
    reduced = moved.reduce_by_key(lambda a, b: a + b)
    result = dict(reduced.collect())
    assert result == {"k": 3}
    # The shuffle input must have been written on dc-b hosts.
    tracker = context.map_output_tracker
    shuffle_ids = {
        dep.shuffle_id
        for r in reduced.lineage()
        for dep in r.dependencies
        if hasattr(dep, "shuffle_id")
    }
    hosts = {
        status.host
        for shuffle_id in shuffle_ids
        for status in tracker.map_statuses(shuffle_id)
    }
    assert hosts  # at least one registered output
    for host in hosts:
        assert context.topology.datacenter_of(host) == "dc-b"
    context.shutdown()


def test_transfer_to_preferred_locations_cover_destination():
    context = make_context(push=True)
    rdd = install(context, [[1]])
    moved = rdd.transfer_to("dc-b")
    prefs = moved.preferred_locations(0)
    assert set(prefs) == set(context.topology.hosts_in("dc-b"))
    context.shutdown()


def test_transfer_to_without_destination_resolves_automatically():
    context = make_context(push=True)
    # All input pinned to dc-b: the aggregator choice must be dc-b.
    context.write_input_file(
        "/in", [[("a", 1)], [("b", 2)]],
        placement_hosts=["dc-b-w0", "dc-b-w1"],
    )
    rdd = context.text_file("/in")
    moved = rdd.transfer_to()
    assert moved.preferred_locations(0) == []  # unresolved until submit
    result = dict(moved.reduce_by_key(lambda a, b: a + b).collect())
    assert result == {"a": 1, "b": 2}
    dep = moved.transfer_dependency
    assert dep.resolved_destinations == ["dc-b"]
    context.shutdown()


def test_local_partitions_transfer_for_free():
    """A transfer whose data is already at the destination moves nothing."""
    context = make_context(push=True)
    context.write_input_file(
        "/in", [[1], [2]], placement_hosts=["dc-a-w0", "dc-a-w1"]
    )
    rdd = context.text_file("/in").transfer_to("dc-a")
    assert rdd.collect() == [1, 2]
    assert context.traffic.cross_dc_by_tag.get("transfer_to", 0.0) == 0.0
    context.shutdown()


def test_cross_dc_transfer_charges_traffic():
    context = make_context(push=True)
    context.write_input_file(
        "/in", [[("x", "y" * 100)]], placement_hosts=["dc-a-w0"]
    )
    rdd = context.text_file("/in").transfer_to("dc-b")
    rdd.collect()
    assert context.traffic.cross_dc_by_tag["transfer_to"] > 0
    context.shutdown()


def test_transfer_then_map_runs_at_destination():
    """The §V-B TeraSort fix: move raw data, then apply the bloating map."""
    context = make_context(push=True)
    context.write_input_file(
        "/in", [[("k1", 1)], [("k2", 2)]],
        placement_hosts=["dc-a-w0", "dc-a-w1"],
    )
    rdd = context.text_file("/in").transfer_to("dc-b")
    mapped = rdd.map(lambda kv: (kv[0], kv[1] * 10))
    result = sorted(mapped.collect())
    assert result == [("k1", 10), ("k2", 20)]
    context.shutdown()


def test_chained_transfers():
    context = make_context(push=True)
    rdd = install(context, [[1, 2]])
    moved_twice = rdd.transfer_to("dc-b").map(lambda x: x + 1).transfer_to("dc-a")
    assert moved_twice.collect() == [2, 3]
    context.shutdown()


def test_transfer_works_on_three_datacenter_cluster():
    spec = small_spec(datacenters=("d1", "d2", "d3"))
    context = make_context(push=True, spec=spec)
    context.write_input_file(
        "/in", [[("a", 1)], [("a", 2)], [("b", 3)]],
        placement_hosts=["d1-w0", "d2-w0", "d3-w0"],
    )
    result = dict(
        context.text_file("/in")
        .transfer_to("d2")
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )
    assert result == {"a": 3, "b": 3}
    context.shutdown()
