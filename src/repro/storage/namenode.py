"""The namenode: file namespace and block-location metadata.

Tracks which hosts hold which blocks, and maps file paths to ordered block
lists.  Replica placement follows a round-robin policy over a caller-
supplied host list, which is how the experiment harness spreads input
partitions across datacenters (the geo-distributed raw data of the paper)
or pins them to one region (skewed-input scenarios).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import (
    BlockNotFoundError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
)
from repro.storage.block import BlockId


class NameNode:
    """Pure-metadata directory of files, blocks, and replica locations."""

    def __init__(self, replication: int = 1) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self._files: Dict[str, List[BlockId]] = {}
        self._locations: Dict[BlockId, List[str]] = {}

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def create_file(self, path: str) -> None:
        if path in self._files:
            raise FileExistsInDFSError(f"path {path!r} already exists")
        self._files[path] = []

    def delete_file(self, path: str) -> List[BlockId]:
        """Remove a file, returning its block ids for datanode cleanup."""
        if path not in self._files:
            raise FileNotFoundInDFSError(f"path {path!r} not found")
        blocks = self._files.pop(path)
        for block_id in blocks:
            self._locations.pop(block_id, None)
        return blocks

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self) -> List[str]:
        return list(self._files)

    def file_blocks(self, path: str) -> List[BlockId]:
        try:
            return list(self._files[path])
        except KeyError:
            raise FileNotFoundInDFSError(f"path {path!r} not found") from None

    # ------------------------------------------------------------------
    # Block metadata
    # ------------------------------------------------------------------
    def append_block(
        self, path: str, block_id: BlockId, hosts: Sequence[str]
    ) -> None:
        if path not in self._files:
            raise FileNotFoundInDFSError(f"path {path!r} not found")
        if not hosts:
            raise ValueError("a block needs at least one replica host")
        self._files[path].append(block_id)
        self._locations[block_id] = list(hosts)

    def block_locations(self, block_id: BlockId) -> List[str]:
        try:
            return list(self._locations[block_id])
        except KeyError:
            raise BlockNotFoundError(f"block {block_id!r} unknown") from None

    def remove_host_replicas(self, host: str) -> List[BlockId]:
        """Drop ``host`` from every block's replica list (host failure).

        Returns the block ids left with *no* surviving replica — lost
        data that only lineage recomputation can restore.
        """
        lost: List[BlockId] = []
        for block_id, hosts in self._locations.items():
            if host in hosts:
                hosts.remove(host)
                if not hosts:
                    lost.append(block_id)
        return lost

    def choose_replica_hosts(
        self, candidate_hosts: Sequence[str], block_index: int
    ) -> List[str]:
        """Round-robin replica placement over ``candidate_hosts``.

        The replicas are distinct hosts: a candidate list may repeat a
        host (per-block placement lists do), but a block listed twice on
        one host would survive that host's loss as a stale location.
        """
        if not candidate_hosts:
            raise ValueError("no candidate hosts for replica placement")
        start = block_index % len(candidate_hosts)
        hosts: List[str] = []
        for offset in range(len(candidate_hosts)):
            host = candidate_hosts[(start + offset) % len(candidate_hosts)]
            if host not in hosts:
                hosts.append(host)
                if len(hosts) == self.replication:
                    break
        return hosts
