"""Datanodes: per-host block storage.

One datanode per worker host.  It tracks the blocks resident on that host
and the cumulative bytes written, which the metrics layer uses for
utilisation reporting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import BlockNotFoundError
from repro.storage.block import Block, BlockId


class DataNode:
    """Block storage attached to one host."""

    def __init__(self, host_name: str) -> None:
        self.host_name = host_name
        self._blocks: Dict[BlockId, Block] = {}
        self.bytes_written = 0.0

    def put(self, block: Block) -> None:
        self._blocks[block.block_id] = block
        self.bytes_written += block.size_bytes

    def get(self, block_id: BlockId) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise BlockNotFoundError(
                f"block {block_id!r} not on host {self.host_name!r}"
            ) from None

    def has(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def remove(self, block_id: BlockId) -> None:
        self._blocks.pop(block_id, None)

    def block_ids(self) -> List[BlockId]:
        return list(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataNode {self.host_name} blocks={len(self._blocks)}>"
