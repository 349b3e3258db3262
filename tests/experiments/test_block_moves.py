"""Where input blocks sit after a pre-job move, at dfs_replication=2.

Centralized (§V-A) and the IridiumLike baseline both move input blocks
before the job and rewrite the file.  The e2e digests and the fidelity
pin run at replication 1, so these pins are the only record of the
exact replica placement, block ids and charged bytes a move leaves at
replication 2.
"""

from repro.experiments.centralize import centralize_input
from repro.experiments.iridium import iridium_redistribute
from tests.conftest import make_context, small_spec


def three_dc_context():
    return make_context(
        spec=small_spec(
            datacenters=("d1", "d2", "d3"), workers_per_datacenter=2
        ),
        dfs_replication=2,
    )


def placement(context, path):
    dfs = context.dfs
    return [(b, dfs.block_locations(b)) for b in dfs.file_blocks(path)]


def test_redistribute_at_replication_two_pins_every_replica():
    context = three_dc_context()
    context.write_input_file(
        "/in", [["x" * 50] for _ in range(6)],
        placement_hosts=["d1-w0", "d1-w1"] * 3,
    )
    iridium_redistribute(context, "/in")
    # The rewrite places each block's second replica round-robin over
    # the other blocks' targets: blocks 0, 1, 2 and 5 gain a replica in
    # a datacenter no flow carried them to.
    assert placement(context, "/in") == [
        ("/in#blk6", ["d2-w0", "d3-w0"]),
        ("/in#blk7", ["d3-w0", "d2-w1"]),
        ("/in#blk8", ["d2-w1", "d3-w1"]),
        ("/in#blk9", ["d3-w1", "d1-w0"]),
        ("/in#blk10", ["d1-w0", "d1-w1"]),
        ("/in#blk11", ["d1-w1", "d2-w0"]),
    ]
    # Four moves of 58 B each, all across the WAN.
    assert context.traffic.flow_count == 4
    assert dict(context.traffic.by_tag) == {"redistribute": 232.0}
    assert dict(context.traffic.cross_dc_by_tag) == {"redistribute": 232.0}
    assert [
        record
        for block_id in context.dfs.file_blocks("/in")
        for record in context.dfs.read_block(block_id).records
    ] == ["x" * 50] * 6
    context.shutdown()


def test_centralize_at_replication_two_pins_every_replica():
    context = three_dc_context()
    context.write_input_file(
        "/in", [[i] for i in range(5)],
        placement_hosts=["d1-w0", "d2-w0", "d3-w1", "d2-w1", "d1-w1"],
    )
    assert [hosts for _b, hosts in placement(context, "/in")] == [
        ["d1-w0", "d2-w0"],
        ["d2-w0", "d3-w1"],
        ["d3-w1", "d2-w1"],
        ["d2-w1", "d1-w1"],
        ["d1-w1", "d1-w0"],
    ]
    centralize_input(context, "/in", "d1")
    # Blocks whose first replica is in d1 stay put; the other three
    # move, and every replica of the rewritten file is in d1.
    assert placement(context, "/in") == [
        ("/in#blk5", ["d1-w0", "d1-w1"]),
        ("/in#blk6", ["d1-w1", "d1-w0"]),
        ("/in#blk7", ["d1-w0", "d1-w1"]),
        ("/in#blk8", ["d1-w1", "d1-w0"]),
        ("/in#blk9", ["d1-w1", "d1-w0"]),
    ]
    assert context.traffic.flow_count == 3
    assert dict(context.traffic.by_tag) == {"centralize": 24.0}
    assert dict(context.traffic.cross_dc_by_tag) == {"centralize": 24.0}
    assert [
        record
        for block_id in context.dfs.file_blocks("/in")
        for record in context.dfs.read_block(block_id).records
    ] == [0, 1, 2, 3, 4]
    context.shutdown()

