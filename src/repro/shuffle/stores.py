"""The staging store of ``transfer_to`` boundaries.

A transfer partition is moved whole, not sharded by reducer, so it has
its own record here rather than a
:class:`~repro.shuffle.map_output_tracker.MapStatus`: the records, their
size and the host they are staged at, so a receiver can tell whether
its pull is host-local or a network flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class StagedPartition:
    """A whole partition staged at its origin, awaiting a receiver pull."""

    host: str
    records: List[Any]
    size_bytes: float


class TransferTracker:
    """Staged partitions for ``transfer_to`` boundaries.

    The producing stage registers each partition under
    ``(transfer_id, partition_index)`` at the host that computed it;
    receiver tasks look it up, pull it, and the DAG scheduler uses the
    registration events to pipeline receivers with producers.
    """

    def __init__(self) -> None:
        self._staged: Dict[Tuple[int, int], StagedPartition] = {}

    def stage_partition(
        self,
        transfer_id: int,
        partition_index: int,
        host: str,
        records: List[Any],
        size_bytes: float,
    ) -> None:
        self._staged[(transfer_id, partition_index)] = StagedPartition(
            host=host, records=records, size_bytes=size_bytes
        )

    def try_get(
        self, transfer_id: int, partition_index: int
    ) -> Optional[StagedPartition]:
        return self._staged.get((transfer_id, partition_index))

    def remove_transfer(self, transfer_id: int) -> None:
        self._staged = {
            key: value
            for key, value in self._staged.items()
            if key[0] != transfer_id
        }

    def remove_host(self, host: str) -> None:
        """Drop all partitions staged at ``host`` (host failure)."""
        self._staged = {
            key: value
            for key, value in self._staged.items()
            if value.host != host
        }
