"""MapOutputTracker: the one record of every map task's shuffle output.

For every shuffle it records, per map partition, the host where the
sharded output lives and the shards themselves (records and logical
size, one per reduce partition).  Reducers read their shard from it;
the task scheduler consults it to compute reducer locality preferences
(hosts holding at least a configured fraction of a reducer's input,
Spark 1.6 semantics); the DAG scheduler consults it to pick aggregator
datacenters for downstream transfers.  A backend that moves map output
re-registers the record at the new host, and a host failure drops the
records registered there, so where a shard lives and what it holds
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.errors import MapOutputMissingError


@dataclass
class ShuffleShard:
    """One (map partition, reduce partition) shard of shuffle output."""

    records: List[Any] = field(default_factory=list)
    size_bytes: float = 0.0


@dataclass
class MapStatus:
    """Location and reduce shards of one map partition's shuffle output."""

    map_index: int
    host: str
    shards: List[ShuffleShard]

    @property
    def total_size(self) -> float:
        return sum(shard.size_bytes for shard in self.shards)


class MapOutputTracker:
    """Registry of :class:`MapStatus` per shuffle."""

    def __init__(self) -> None:
        self._shuffles: Dict[int, Dict[int, MapStatus]] = {}
        self._num_maps: Dict[int, int] = {}

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        if shuffle_id not in self._shuffles:
            self._shuffles[shuffle_id] = {}
            self._num_maps[shuffle_id] = num_maps

    def register_map_output(self, shuffle_id: int, status: MapStatus) -> None:
        """Record ``status``; a re-registration (relocation or re-run)
        replaces the previous record of that map partition."""
        if shuffle_id not in self._shuffles:
            raise MapOutputMissingError(f"shuffle {shuffle_id} not registered")
        self._shuffles[shuffle_id][status.map_index] = status

    def unregister_shuffle(self, shuffle_id: int) -> None:
        self._shuffles.pop(shuffle_id, None)
        self._num_maps.pop(shuffle_id, None)

    def unregister_host(self, host: str) -> int:
        """Drop every map output registered at ``host`` (host failure).

        Returns the number of map outputs lost; affected shuffles become
        incomplete, so dependent stages re-run exactly those partitions.
        """
        lost = 0
        for statuses in self._shuffles.values():
            doomed = [
                index for index, status in statuses.items()
                if status.host == host
            ]
            for index in doomed:
                del statuses[index]
                lost += 1
        return lost

    def has_map_output(self, shuffle_id: int, map_index: int) -> bool:
        return map_index in self._shuffles.get(shuffle_id, {})

    def is_registered(self, shuffle_id: int) -> bool:
        return shuffle_id in self._shuffles

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_complete(self, shuffle_id: int) -> bool:
        if shuffle_id not in self._shuffles:
            return False
        return len(self._shuffles[shuffle_id]) == self._num_maps[shuffle_id]

    def map_statuses(self, shuffle_id: int) -> List[MapStatus]:
        try:
            statuses = self._shuffles[shuffle_id]
        except KeyError:
            raise MapOutputMissingError(
                f"shuffle {shuffle_id} not registered"
            ) from None
        return [statuses[index] for index in sorted(statuses)]

    def map_status(self, shuffle_id: int, map_index: int) -> MapStatus:
        statuses = self._shuffles.get(shuffle_id, {})
        if map_index not in statuses:
            raise MapOutputMissingError(
                f"shuffle {shuffle_id}: no output for map {map_index}"
            )
        return statuses[map_index]

    def reducer_input_by_host(
        self, shuffle_id: int, reduce_index: int
    ) -> Dict[str, float]:
        """Logical bytes this reducer must read, keyed by source host."""
        by_host: Dict[str, float] = {}
        for status in self.map_statuses(shuffle_id):
            size = status.shards[reduce_index].size_bytes
            if size > 0:
                by_host[status.host] = by_host.get(status.host, 0.0) + size
        return by_host

    def reducer_preferred_hosts(
        self, shuffle_id: int, reduce_index: int, fraction: float
    ) -> List[str]:
        """Hosts storing at least ``fraction`` of the reducer's input.

        Mirrors Spark 1.6's ``getPreferredLocationsForShuffle``: with map
        output scattered over many hosts no host passes the threshold and
        the reducer has *no* locality preference — the behaviour that lets
        the default scheduler scatter reducers across datacenters, which
        the paper's aggregation strategy exploits in reverse.
        """
        by_host = self.reducer_input_by_host(shuffle_id, reduce_index)
        total = sum(by_host.values())
        if total <= 0:
            return []
        return [
            host for host, size in by_host.items() if size >= fraction * total
        ]

    def total_output_by_datacenter(
        self, shuffle_id: int, datacenter_of: Callable[[str], str]
    ) -> Dict[str, float]:
        """Aggregate registered map-output bytes per datacenter."""
        by_dc: Dict[str, float] = {}
        for status in self.map_statuses(shuffle_id):
            dc = datacenter_of(status.host)
            by_dc[dc] = by_dc.get(dc, 0.0) + status.total_size
        return by_dc

    def bytes_by_host(self) -> Dict[str, float]:
        """Total registered shuffle bytes per host, over every shuffle.

        Used by chaos targeting: on backends without mergers, the
        data-heaviest live host stands in for a "merger" so the same
        chaos schedule stays meaningful across backends.
        """
        totals: Dict[str, float] = {}
        for statuses in self._shuffles.values():
            for status in statuses.values():
                host = status.host
                for shard in status.shards:
                    totals[host] = totals.get(host, 0.0) + shard.size_bytes
        return totals
