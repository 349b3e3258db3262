"""Storage substrate: blocks, the DFS's namespace (HDFS's namenode role)
and replicas (its datanode role), disk model."""

import pytest

from repro.errors import (
    BlockNotFoundError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
)
from repro.storage import Block, DiskModel, DistributedFileSystem


def make_dfs(replication=1):
    return DistributedFileSystem(
        ["h0", "h1", "h2", "only"], replication=replication
    )


def locations(dfs, path):
    return [dfs.block_locations(b) for b in dfs.file_blocks(path)]


# ----------------------------------------------------------------------
# Block
# ----------------------------------------------------------------------
def test_block_record_count_and_repr():
    block = Block("b1", records=[1, 2, 3], size_bytes=300.0)
    assert repr(block) == "<Block b1 3 records, 0.00 MB>"


# ----------------------------------------------------------------------
# Replicas: a host named in the block's record
# ----------------------------------------------------------------------
def test_datanode_put_get_remove():
    dfs = make_dfs()
    (block_id,) = dfs.write_file("/f", [["x"]], [10.0], ["h1"])
    assert dfs.block_locations(block_id) == ["h1"]
    block = dfs.read_block(block_id)
    assert (block.records, block.size_bytes) == (["x"], 10.0)
    assert dfs.remove_host("h1") == [block_id]
    assert dfs.block_locations(block_id) == []
    # Losing a host that holds nothing loses nothing.
    assert dfs.remove_host("h1") == []


def test_datanode_missing_block_raises():
    dfs = make_dfs()
    with pytest.raises(BlockNotFoundError):
        dfs.read_block("nope")
    with pytest.raises(BlockNotFoundError):
        dfs.block_locations("nope")


def test_datanode_block_ids():
    dfs = make_dfs()
    a = dfs.write_file("/a", [[1]], [1.0], ["h1"])
    b = dfs.write_file("/b", [[2], [3]], [1.0, 1.0], ["h1", "h2"])
    assert dfs.remove_host("h1") == [a[0], b[0]]
    assert locations(dfs, "/b") == [[], ["h2"]]


# ----------------------------------------------------------------------
# Namespace
# ----------------------------------------------------------------------
def test_namenode_file_lifecycle():
    dfs = make_dfs()
    block_ids = dfs.write_file("/f", [[1], [2]], [1.0, 1.0], ["h1", "h2"])
    assert dfs.file_blocks("/f") == block_ids
    assert locations(dfs, "/f") == [["h1"], ["h2"]]
    dfs.delete_file("/f")
    with pytest.raises(FileNotFoundInDFSError):
        dfs.file_blocks("/f")
    with pytest.raises(BlockNotFoundError):
        dfs.block_locations(block_ids[0])


def test_namenode_duplicate_create_raises():
    dfs = make_dfs()
    block_ids = dfs.write_file("/f", [[1]], [1.0], ["h0"])
    with pytest.raises(FileExistsInDFSError):
        dfs.write_file("/f", [[2]], [1.0], ["h1"])
    assert dfs.file_blocks("/f") == block_ids
    assert dfs.read_block(block_ids[0]).records == [1]


def test_namenode_missing_file_raises():
    dfs = make_dfs()
    with pytest.raises(FileNotFoundInDFSError):
        dfs.file_blocks("/missing")
    with pytest.raises(FileNotFoundInDFSError):
        dfs.delete_file("/missing")


def test_namenode_block_needs_replica():
    dfs = make_dfs()
    with pytest.raises(ValueError):
        dfs.write_file("/f", [[1]], [1.0], [])
    with pytest.raises(FileNotFoundInDFSError):
        dfs.file_blocks("/f")
    # A file with no blocks needs no host.
    assert dfs.write_file("/f", [], [], []) == []
    assert dfs.file_blocks("/f") == []


def test_replica_placement_round_robin():
    dfs = make_dfs(replication=2)
    dfs.write_file("/f", [[0], [1], [2]], [1.0] * 3, ["h0", "h1", "h2"])
    assert locations(dfs, "/f") == [["h0", "h1"], ["h1", "h2"], ["h2", "h0"]]


def test_replication_capped_by_candidates():
    dfs = make_dfs(replication=5)
    dfs.write_file("/f", [[i] for i in range(4)], [1.0] * 4, ["only"])
    assert locations(dfs, "/f")[3] == ["only"]


def test_replicas_are_distinct_when_candidates_repeat():
    """A repeated candidate keeps its slot as a block's first replica
    (per-block placement lists rely on it) but is never chosen twice."""
    dfs = make_dfs(replication=2)
    dfs.write_file("/f", [[0], [1], [2]], [1.0] * 3, ["h0", "h0", "h1"])
    assert locations(dfs, "/f") == [["h0", "h1"], ["h0", "h1"], ["h1", "h0"]]
    dfs.write_file("/g", [[0]], [1.0], ["h0", "h0"])
    assert locations(dfs, "/g") == [["h0"]]


def test_replication_must_be_positive():
    with pytest.raises(ValueError):
        DistributedFileSystem(["h0"], replication=0)


# ----------------------------------------------------------------------
# DiskModel
# ----------------------------------------------------------------------
def test_disk_times_scale_with_bytes():
    disk = DiskModel(
        read_bytes_per_second=100e6,
        write_bytes_per_second=50e6,
        seek_seconds=0.001,
    )
    assert disk.read_time(100e6) == pytest.approx(1.001)
    assert disk.write_time(100e6) == pytest.approx(2.001)
    assert disk.read_time(0) == 0.0
    assert disk.write_time(0) == 0.0


def test_disk_rejects_negative_sizes():
    disk = DiskModel()
    with pytest.raises(ValueError):
        disk.read_time(-1)
    with pytest.raises(ValueError):
        disk.write_time(-1)
