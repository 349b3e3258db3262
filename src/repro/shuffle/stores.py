"""Payload stores for shuffle shards and staged transfer partitions.

These hold the *actual records* flowing between stages.  Metadata about
where data lives is in :class:`~repro.shuffle.map_output_tracker.MapOutputTracker`
(for shuffles) and :class:`TransferTracker` (for transfer boundaries);
the stores here hold the bytes, keyed so the runtime can tell whether a
read is host-local (disk) or remote (a network flow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MapOutputMissingError


@dataclass
class ShuffleShard:
    """One (map partition, reduce partition) shard of shuffle output."""

    records: List[Any] = field(default_factory=list)
    size_bytes: float = 0.0


class ShuffleStore:
    """All written shuffle shards, keyed by (shuffle, map, reduce)."""

    def __init__(self) -> None:
        self._shards: Dict[Tuple[int, int, int], ShuffleShard] = {}
        self._hosts: Dict[Tuple[int, int], str] = {}

    def put_map_output(
        self,
        shuffle_id: int,
        map_index: int,
        host: str,
        shards: List[ShuffleShard],
    ) -> None:
        """Store all reduce shards of one map partition at ``host``.

        Re-registration (after a push relocated the output, or a map task
        re-ran) simply overwrites.
        """
        self._hosts[(shuffle_id, map_index)] = host
        for reduce_index, shard in enumerate(shards):
            self._shards[(shuffle_id, map_index, reduce_index)] = shard

    def get_shard(
        self, shuffle_id: int, map_index: int, reduce_index: int
    ) -> ShuffleShard:
        key = (shuffle_id, map_index, reduce_index)
        if key not in self._shards:
            raise MapOutputMissingError(
                f"missing shuffle shard {key}"
            )
        return self._shards[key]

    def bytes_by_host(self) -> Dict[str, float]:
        """Total stored shuffle bytes per host.

        Used by chaos targeting: on backends without mergers, the
        data-heaviest live host stands in for a "merger" so the same
        chaos schedule stays meaningful across backends.
        """
        totals: Dict[str, float] = {}
        for (shuffle_id, map_index, _reduce), shard in self._shards.items():
            host = self._hosts.get((shuffle_id, map_index))
            if host is not None:
                totals[host] = totals.get(host, 0.0) + shard.size_bytes
        return totals

    def remove_host(self, host: str) -> None:
        """Drop all shards written by ``host`` (host failure)."""
        doomed = {
            key for key, owner in self._hosts.items() if owner == host
        }
        self._hosts = {
            key: owner for key, owner in self._hosts.items()
            if key not in doomed
        }
        self._shards = {
            key: shard for key, shard in self._shards.items()
            if (key[0], key[1]) not in doomed
        }

    def remove_shuffle(self, shuffle_id: int) -> None:
        self._shards = {
            key: value
            for key, value in self._shards.items()
            if key[0] != shuffle_id
        }
        self._hosts = {
            key: value
            for key, value in self._hosts.items()
            if key[0] != shuffle_id
        }


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
