"""Blocks: the unit of storage and of input-split parallelism.

A block holds a list of *records* (arbitrary Python objects) together with
its logical size in bytes.  The logical size is what the network and disk
models charge for; it is computed by the RDD layer's size estimator when
the block is written, so scaled-down record counts can still represent
paper-scale byte volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

BlockId = str


@dataclass
class Block:
    """An immutable-by-convention chunk of records plus size metadata."""

    block_id: BlockId
    records: List[Any] = field(default_factory=list)
    size_bytes: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block {self.block_id} {len(self.records)} records, "
            f"{self.size_bytes / 1e6:.2f} MB>"
        )
