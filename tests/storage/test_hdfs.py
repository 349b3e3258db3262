"""DistributedFileSystem facade: writing, reading, locality."""

import pytest

from repro.errors import BlockNotFoundError, FileNotFoundInDFSError
from repro.storage import DistributedFileSystem


def make_dfs(replication=1):
    return DistributedFileSystem(
        ["h0", "h1", "h2", "h3"], replication=replication
    )


def test_write_creates_one_block_per_partition():
    dfs = make_dfs()
    dfs.write_file(
        "/data",
        partitions=[[1, 2], [3], [4, 5, 6]],
        partition_sizes=[20.0, 10.0, 30.0],
        placement_hosts=["h0", "h1", "h2"],
    )
    blocks = dfs.file_blocks("/data")
    assert len(blocks) == 3
    assert dfs.file_size("/data") == pytest.approx(60.0)
    assert dfs.block_locations(blocks[0]) == ["h0"]
    assert dfs.block_locations(blocks[1]) == ["h1"]


def test_placement_round_robins_over_hosts():
    dfs = make_dfs()
    dfs.write_file(
        "/data",
        partitions=[[i] for i in range(6)],
        partition_sizes=[1.0] * 6,
        placement_hosts=["h0", "h1"],
    )
    locations = [dfs.block_locations(b)[0] for b in dfs.file_blocks("/data")]
    assert locations == ["h0", "h1", "h0", "h1", "h0", "h1"]


def test_read_block_prefers_requested_host():
    dfs = make_dfs(replication=2)
    dfs.write_file(
        "/data", [[1]], [8.0], placement_hosts=["h0", "h1", "h2"]
    )
    block_id = dfs.file_blocks("/data")[0]
    locations = dfs.block_locations(block_id)
    assert len(locations) == 2
    block = dfs.read_block(block_id, from_host=locations[1])
    assert block.records == [1]


def test_read_block_falls_back_to_any_replica():
    dfs = make_dfs()
    dfs.write_file("/data", [[1]], [8.0], placement_hosts=["h3"])
    block_id = dfs.file_blocks("/data")[0]
    block = dfs.read_block(block_id, from_host="h0")
    assert block.records == [1]


def test_partition_size_mismatch_rejected():
    dfs = make_dfs()
    with pytest.raises(ValueError):
        dfs.write_file("/bad", [[1], [2]], [1.0], placement_hosts=["h0"])


def test_delete_file_removes_blocks_everywhere():
    dfs = make_dfs(replication=2)
    dfs.write_file("/data", [[1]], [8.0], placement_hosts=["h0", "h1"])
    block_id = dfs.file_blocks("/data")[0]
    dfs.delete_file("/data")
    assert not dfs.exists("/data")
    with pytest.raises(BlockNotFoundError):
        dfs.read_block(block_id)
    with pytest.raises(FileNotFoundInDFSError):
        dfs.file_blocks("/data")


def test_block_ids_are_unique_across_files():
    dfs = make_dfs()
    dfs.write_file("/a", [[1]], [1.0], placement_hosts=["h0"])
    dfs.write_file("/b", [[2]], [1.0], placement_hosts=["h0"])
    assert dfs.file_blocks("/a") != dfs.file_blocks("/b")


def test_replication_places_multiple_copies():
    dfs = make_dfs(replication=3)
    dfs.write_file(
        "/data", [[1]], [8.0], placement_hosts=["h0", "h1", "h2", "h3"]
    )
    block_id = dfs.file_blocks("/data")[0]
    assert len(dfs.block_locations(block_id)) == 3


def test_host_loss_leaves_no_stale_replica_of_repeated_candidate():
    """Regression: with ``placement_hosts`` repeating a host and
    replication > 1 a block was listed on that host twice; losing the
    host then left a stale location and ``block_size`` raised."""
    dfs = make_dfs(replication=2)
    dfs.write_file(
        "/data", [[1], [2]], [8.0, 4.0], placement_hosts=["h0", "h0", "h1"]
    )
    blocks = dfs.file_blocks("/data")
    for block_id in blocks:
        assert dfs.block_locations(block_id) == ["h0", "h1"]
    # Lose h0 the way ClusterContext.fail_host does.
    assert dfs.namenode.remove_host_replicas("h0") == []
    for block_id in dfs.datanodes["h0"].block_ids():
        dfs.datanodes["h0"].remove(block_id)
    assert [dfs.block_locations(b) for b in blocks] == [["h1"], ["h1"]]
    assert dfs.file_size("/data") == pytest.approx(12.0)
