"""Storage substrate: blocks, namenode metadata, datanodes, disk model."""

import pytest

from repro.errors import (
    BlockNotFoundError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
)
from repro.storage import Block, DataNode, DiskModel, NameNode


# ----------------------------------------------------------------------
# Block
# ----------------------------------------------------------------------
def test_block_record_count_and_repr():
    block = Block("b1", records=[1, 2, 3], size_bytes=300.0)
    assert block.record_count == 3
    assert "b1" in repr(block)


# ----------------------------------------------------------------------
# DataNode
# ----------------------------------------------------------------------
def test_datanode_put_get_remove():
    node = DataNode("host1")
    block = Block("b1", records=["x"], size_bytes=10.0)
    node.put(block)
    assert node.has("b1")
    assert node.get("b1") is block
    assert node.used_bytes == 10.0
    assert node.bytes_written == 10.0
    node.remove("b1")
    assert not node.has("b1")
    # bytes_written is cumulative, used_bytes reflects current content.
    assert node.bytes_written == 10.0
    assert node.used_bytes == 0.0


def test_datanode_missing_block_raises():
    node = DataNode("host1")
    with pytest.raises(BlockNotFoundError):
        node.get("nope")


def test_datanode_block_ids():
    node = DataNode("host1")
    node.put(Block("a"))
    node.put(Block("b"))
    assert sorted(node.block_ids()) == ["a", "b"]


# ----------------------------------------------------------------------
# NameNode
# ----------------------------------------------------------------------
def test_namenode_file_lifecycle():
    namenode = NameNode()
    namenode.create_file("/f")
    assert namenode.exists("/f")
    namenode.append_block("/f", "b0", ["h1"])
    namenode.append_block("/f", "b1", ["h2"])
    assert namenode.file_blocks("/f") == ["b0", "b1"]
    assert namenode.block_locations("b0") == ["h1"]
    removed = namenode.delete_file("/f")
    assert removed == ["b0", "b1"]
    assert not namenode.exists("/f")
    with pytest.raises(BlockNotFoundError):
        namenode.block_locations("b0")


def test_namenode_duplicate_create_raises():
    namenode = NameNode()
    namenode.create_file("/f")
    with pytest.raises(FileExistsInDFSError):
        namenode.create_file("/f")


def test_namenode_missing_file_raises():
    namenode = NameNode()
    with pytest.raises(FileNotFoundInDFSError):
        namenode.file_blocks("/missing")
    with pytest.raises(FileNotFoundInDFSError):
        namenode.delete_file("/missing")
    with pytest.raises(FileNotFoundInDFSError):
        namenode.append_block("/missing", "b", ["h"])


def test_namenode_block_needs_replica():
    namenode = NameNode()
    namenode.create_file("/f")
    with pytest.raises(ValueError):
        namenode.append_block("/f", "b", [])


def test_replica_placement_round_robin():
    namenode = NameNode(replication=2)
    hosts = ["h0", "h1", "h2"]
    assert namenode.choose_replica_hosts(hosts, 0) == ["h0", "h1"]
    assert namenode.choose_replica_hosts(hosts, 1) == ["h1", "h2"]
    assert namenode.choose_replica_hosts(hosts, 2) == ["h2", "h0"]


def test_replication_capped_by_candidates():
    namenode = NameNode(replication=5)
    assert namenode.choose_replica_hosts(["only"], 3) == ["only"]


def test_replicas_are_distinct_when_candidates_repeat():
    """A repeated candidate keeps its slot as a block's first replica
    (per-block placement lists rely on it) but is never chosen twice."""
    namenode = NameNode(replication=2)
    hosts = ["h0", "h0", "h1"]
    assert namenode.choose_replica_hosts(hosts, 0) == ["h0", "h1"]
    assert namenode.choose_replica_hosts(hosts, 1) == ["h0", "h1"]
    assert namenode.choose_replica_hosts(hosts, 2) == ["h1", "h0"]
    assert namenode.choose_replica_hosts(["h0", "h0"], 0) == ["h0"]


def test_replication_must_be_positive():
    with pytest.raises(ValueError):
        NameNode(replication=0)


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
