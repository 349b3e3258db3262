"""The DFS facade: write/read files of record blocks with locality.

:class:`DistributedFileSystem` glues the namenode and the per-host
datanodes together and is the layer the RDD engine's ``textFile``-style
inputs sit on.  Writes and reads are plain (non-simulated) metadata
operations — the *time* for input I/O is charged by tasks through the
disk model, and network time for non-local reads through the fabric; the
DFS itself only answers "what's where".
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import BlockNotFoundError
from repro.rdd.size_estimator import view
from repro.storage.block import Block, BlockId
from repro.storage.datanode import DataNode
from repro.storage.disk import DiskModel
from repro.storage.namenode import NameNode


class DistributedFileSystem:
    """HDFS-like storage spanning every host in the topology."""

    def __init__(
        self,
        host_names: Iterable[str],
        replication: int = 1,
        disk: Optional[DiskModel] = None,
    ) -> None:
        self.namenode = NameNode(replication=replication)
        self.datanodes: Dict[str, DataNode] = {
            name: DataNode(name) for name in host_names
        }
        self.disk = disk if disk is not None else DiskModel()
        self._block_ids = itertools.count()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_file(
        self,
        path: str,
        partitions: Sequence[List[Any]],
        partition_sizes: Sequence[float],
        placement_hosts: Sequence[str],
    ) -> List[BlockId]:
        """Create ``path`` with one block per partition.

        ``placement_hosts`` drives round-robin replica placement; pass a
        single-host list to pin the whole file to one machine, or the whole
        cluster's host list to spread it.
        """
        if len(partitions) != len(partition_sizes):
            raise ValueError("partitions and partition_sizes length mismatch")
        self.namenode.create_file(path)
        block_ids: List[BlockId] = []
        for index, (records, size) in enumerate(zip(partitions, partition_sizes)):
            block_id = f"{path}#blk{next(self._block_ids)}"
            hosts = self.namenode.choose_replica_hosts(placement_hosts, index)
            block = Block(block_id, records=view(records), size_bytes=float(size))
            for host in hosts:
                self.datanodes[host].put(block)
            self.namenode.append_block(path, block_id, hosts)
            block_ids.append(block_id)
        return block_ids

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_block(self, block_id: BlockId, from_host: Optional[str] = None) -> Block:
        """Fetch a block's payload, preferring the ``from_host`` replica."""
        locations = self.namenode.block_locations(block_id)
        if from_host is not None and from_host in locations:
            return self.datanodes[from_host].get(block_id)
        for host in locations:
            if self.datanodes[host].has(block_id):
                return self.datanodes[host].get(block_id)
        raise BlockNotFoundError(f"no live replica of block {block_id!r}")

    def block_locations(self, block_id: BlockId) -> List[str]:
        return self.namenode.block_locations(block_id)

    def file_blocks(self, path: str) -> List[BlockId]:
        return self.namenode.file_blocks(path)

    def block_size(self, block_id: BlockId) -> float:
        locations = self.namenode.block_locations(block_id)
        return self.datanodes[locations[0]].get(block_id).size_bytes

    def delete_file(self, path: str) -> None:
        for block_id in self.namenode.delete_file(path):
            for datanode in self.datanodes.values():
                datanode.remove(block_id)
