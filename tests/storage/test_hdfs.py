"""DistributedFileSystem facade: writing, reading, locality."""

import pytest

from repro.errors import (
    BlockNotFoundError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
    StorageError,
)
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
    assert sum(dfs.read_block(b).size_bytes for b in blocks) == pytest.approx(60.0)
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


def test_replicated_block_reads_its_one_record():
    dfs = make_dfs(replication=2)
    dfs.write_file(
        "/data", [[1]], [8.0], placement_hosts=["h0", "h1", "h2"]
    )
    block_id = dfs.file_blocks("/data")[0]
    assert dfs.block_locations(block_id) == ["h0", "h1"]
    block = dfs.read_block(block_id)
    assert block.records == [1]
    assert block is dfs.block(block_id)


def test_read_block_falls_back_to_any_replica():
    """A block whose first replica host died still reads; once its last
    replica is gone it raises."""
    dfs = make_dfs(replication=2)
    dfs.write_file("/data", [[1]], [8.0], placement_hosts=["h3", "h0"])
    block_id = dfs.file_blocks("/data")[0]
    assert dfs.remove_host("h3") == []
    assert dfs.read_block(block_id).records == [1]
    assert dfs.block_locations(block_id) == ["h0"]
    assert dfs.remove_host("h0") == [block_id]
    with pytest.raises(BlockNotFoundError, match="no live replica"):
        dfs.read_block(block_id)
    # The record outlives its replicas: what was lost stays sizeable.
    assert dfs.block(block_id).size_bytes == 8.0


def test_partition_size_mismatch_rejected():
    dfs = make_dfs()
    with pytest.raises(ValueError):
        dfs.write_file("/bad", [[1], [2]], [1.0], placement_hosts=["h0"])
    with pytest.raises(FileNotFoundInDFSError):
        dfs.file_blocks("/bad")


@pytest.mark.parametrize("hosts", [["h0", "ghost"], ["ghost", "spook"]])
def test_bad_placement_host_leaves_no_file_and_retry_succeeds(hosts):
    dfs = make_dfs()
    with pytest.raises(StorageError) as raised:
        dfs.write_file("/p", [[1], [2]], [1.0, 1.0], placement_hosts=hosts)
    assert not isinstance(raised.value, FileExistsInDFSError)
    for host in set(hosts) - {"h0"}:
        assert host in str(raised.value)
    with pytest.raises(FileNotFoundInDFSError):
        dfs.file_blocks("/p")
    assert dfs.write_file(
        "/p", [[1], [2]], [1.0, 1.0], placement_hosts=["h0", "h1"]
    ) == ["/p#blk0", "/p#blk1"]
    assert [dfs.block_locations(b) for b in dfs.file_blocks("/p")] == [
        ["h0"], ["h1"],
    ]


def test_delete_file_removes_blocks_everywhere():
    dfs = make_dfs(replication=2)
    dfs.write_file("/data", [[1]], [8.0], placement_hosts=["h0", "h1"])
    block_id = dfs.file_blocks("/data")[0]
    dfs.delete_file("/data")
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
    host then left a stale location."""
    dfs = make_dfs(replication=2)
    dfs.write_file(
        "/data", [[1], [2]], [8.0, 4.0], placement_hosts=["h0", "h0", "h1"]
    )
    blocks = dfs.file_blocks("/data")
    for block_id in blocks:
        assert dfs.block_locations(block_id) == ["h0", "h1"]
    # Lose h0 the way ClusterContext.fail_host does.
    assert dfs.remove_host("h0") == []
    assert [dfs.block_locations(b) for b in blocks] == [["h1"], ["h1"]]
    assert sum(dfs.read_block(b).size_bytes for b in blocks) == pytest.approx(12.0)
