"""CacheManager: cluster-wide registry of persisted RDD partitions.

``rdd.cache()`` marks an RDD; the first task to compute one of its
partitions registers the records here, pinned to the computing host.
Later reads are free when local and a network flow when remote — which is
exactly why caching *scattered* data is expensive in wide-area analytics
(§IV-E) and caching *after aggregation* is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class CachedPartition:
    host: str
    records: List[Any]
    size_bytes: float


class CacheManager:
    """(rdd id, partition) -> cached records at a host."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], CachedPartition] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, rdd_id: int, partition: int) -> Optional[CachedPartition]:
        entry = self._entries.get((rdd_id, partition))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def location(self, rdd_id: int, partition: int) -> Optional[str]:
        entry = self._entries.get((rdd_id, partition))
        return entry.host if entry is not None else None

    def put(
        self,
        rdd_id: int,
        partition: int,
        host: str,
        records: List[Any],
        size_bytes: float,
    ) -> None:
        # First writer wins: repeated computation of the same partition
        # (e.g. by a retried task) must not move the cached copy around.
        self._entries.setdefault(
            (rdd_id, partition),
            CachedPartition(host=host, records=records, size_bytes=size_bytes),
        )

    def evict_host(self, host: str) -> None:
        """Drop every cached partition held by ``host`` (host failure)."""
        self._entries = {
            key: entry for key, entry in self._entries.items()
            if entry.host != host
        }

    @property
    def entry_count(self) -> int:
        return len(self._entries)
