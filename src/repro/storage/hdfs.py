"""The DFS: files of record blocks, one record per block.

:class:`DistributedFileSystem` maps each path to its ordered block ids
and each id to its :class:`Block`, which holds the records, their
logical size and the hosts with a replica: HDFS's namenode locations and
datanode payloads in one place.  It is the layer the RDD engine's
``textFile``-style inputs sit on.  Its operations are plain metadata
edits — tasks charge input I/O time through the disk model and
non-local reads through the fabric; the DFS only answers "what's where".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

from repro.errors import (
    BlockNotFoundError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
    StorageError,
)
from repro.rdd.size_estimator import view

BlockId = str


@dataclass
class Block:
    """A chunk of records (immutable by convention), the live hosts
    with a replica, and the logical size the network and disk models
    charge for — the size estimator's, so scaled-down record counts
    still stand for paper-scale byte volumes."""

    block_id: BlockId
    records: List[Any] = field(default_factory=list)
    size_bytes: float = 0.0
    hosts: List[str] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block {self.block_id} {len(self.records)} records, "
            f"{self.size_bytes / 1e6:.2f} MB>"
        )


class DistributedFileSystem:
    """HDFS-like storage spanning every host in the topology."""

    def __init__(self, host_names: Iterable[str], replication: int = 1) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self._host_names = frozenset(host_names)
        self._files: Dict[str, List[BlockId]] = {}
        self._blocks: Dict[BlockId, Block] = {}
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
        cluster's host list to spread it.  Every argument is checked
        before anything is created, so a rejected write leaves no file.
        """
        if len(partitions) != len(partition_sizes):
            raise ValueError("partitions and partition_sizes length mismatch")
        if partitions and not placement_hosts:
            raise ValueError("no candidate hosts for replica placement")
        unknown = sorted(set(placement_hosts) - self._host_names)
        if unknown:
            raise StorageError(f"placement hosts not in the topology: {unknown}")
        if path in self._files:
            raise FileExistsInDFSError(f"path {path!r} already exists")
        block_ids: List[BlockId] = []
        for index, (records, size) in enumerate(zip(partitions, partition_sizes)):
            block_id = f"{path}#blk{next(self._block_ids)}"
            self._blocks[block_id] = Block(
                block_id,
                records=view(records),
                size_bytes=float(size),
                hosts=self._replica_hosts(placement_hosts, index),
            )
            block_ids.append(block_id)
        self._files[path] = block_ids
        return list(block_ids)

    def _replica_hosts(
        self, candidate_hosts: Sequence[str], block_index: int
    ) -> List[str]:
        """Round-robin replica placement over ``candidate_hosts``.

        The replicas are distinct hosts: a candidate list may repeat a
        host (per-block placement lists do), but a block listed twice on
        one host would survive that host's loss as a stale location.
        """
        start = block_index % len(candidate_hosts)
        hosts: List[str] = []
        for offset in range(len(candidate_hosts)):
            host = candidate_hosts[(start + offset) % len(candidate_hosts)]
            if host not in hosts:
                hosts.append(host)
                if len(hosts) == self.replication:
                    break
        return hosts

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def block(self, block_id: BlockId) -> Block:
        """The record of ``block_id``, whether or not a replica is left."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise BlockNotFoundError(f"block {block_id!r} unknown") from None

    def read_block(self, block_id: BlockId) -> Block:
        """The record of ``block_id``; raises once no replica is live."""
        block = self.block(block_id)
        if not block.hosts:
            raise BlockNotFoundError(f"no live replica of block {block_id!r}")
        return block

    def block_locations(self, block_id: BlockId) -> List[str]:
        return list(self.block(block_id).hosts)

    def file_blocks(self, path: str) -> List[BlockId]:
        try:
            return list(self._files[path])
        except KeyError:
            raise FileNotFoundInDFSError(f"path {path!r} not found") from None

    def delete_file(self, path: str) -> None:
        try:
            block_ids = self._files.pop(path)
        except KeyError:
            raise FileNotFoundInDFSError(f"path {path!r} not found") from None
        for block_id in block_ids:
            del self._blocks[block_id]

    def remove_host(self, host: str) -> List[BlockId]:
        """Drop ``host``'s replicas (host failure).

        Returns the block ids left with *no* surviving replica — lost
        data that only lineage recomputation can restore.
        """
        lost: List[BlockId] = []
        for block in self._blocks.values():
            if host in block.hosts:
                block.hosts.remove(host)
                if not block.hosts:
                    lost.append(block.block_id)
        return lost
