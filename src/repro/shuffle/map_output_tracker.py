"""MapOutputTracker: the one record of every map task's shuffle output.

For every shuffle it records, per map partition, where every copy of
the output lives and the shards themselves (records and logical size,
one per reduce partition): the host that serves reads, the replica hosts
holding further copies, and the object-store endpoint of its durable
copy, if any (which no host loss takes).  Reducers read their shard from
it; the task scheduler consults it to compute reducer locality
preferences (hosts holding at least a configured fraction of a
reducer's input, Spark 1.6 semantics); the DAG scheduler consults it to
pick aggregator datacenters for downstream transfers.  A backend that
moves map output re-registers the record at the new host, and a host
failure is applied to the records themselves (``unregister_host``): a
lost replica is dropped, a lost serving copy is replaced by the
durable copy or the first surviving replica, and an output left with no
copy is dropped — so where a shard lives and what it holds cannot drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import MapOutputMissingError

# (shuffle_id, map_index): one map output.
OutputKey = Tuple[int, int]


@dataclass
class ShuffleShard:
    """One (map partition, reduce partition) shard of shuffle output."""

    records: List[Any] = field(default_factory=list)
    size_bytes: float = 0.0


@dataclass
class MapStatus:
    """Where one map partition's shuffle output lives, and its shards.

    ``host`` serves reads; ``replicas`` are the other hosts holding a
    copy, sorted — the order promotion takes them in — and never
    ``host``.  ``handed_off`` marks an output a backend moved onto its
    own storage tier (the remote backend's worker pool), as against one
    still where its map task wrote it.  ``durable_host`` is the object
    store endpoint serving the output's durable copy (the blob store's),
    if it has one: no host loss takes that copy, and a re-registration
    keeps it.
    """

    map_index: int
    host: str
    shards: List[ShuffleShard]
    replicas: List[str] = field(default_factory=list)
    handed_off: bool = False
    durable_host: Optional[str] = None

    @property
    def total_size(self) -> float:
        return sum(shard.size_bytes for shard in self.shards)


@dataclass
class HostLoss:
    """What one host's loss did to the map outputs, each list in key
    order: outputs whose serving copy went and another copy took over,
    outputs that lost a replica only, and outputs left with no copy
    (their records, now unregistered)."""

    promoted: List[OutputKey] = field(default_factory=list)
    degraded: List[OutputKey] = field(default_factory=list)
    lost: List[Tuple[OutputKey, MapStatus]] = field(default_factory=list)


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
        replaces the previous record of that map partition, all but its
        durable copy, which no host holds."""
        statuses = self._shuffles.get(shuffle_id)
        if statuses is None:
            raise MapOutputMissingError(f"shuffle {shuffle_id} not registered")
        previous = statuses.get(status.map_index)
        if previous is not None:
            status.durable_host = previous.durable_host
        statuses[status.map_index] = status

    def unregister_shuffle(self, shuffle_id: int) -> None:
        self._shuffles.pop(shuffle_id, None)
        self._num_maps.pop(shuffle_id, None)

    def unregister_host(self, host: str) -> HostLoss:
        """Apply the loss of ``host`` to every record (host failure).

        A replica there is dropped.  A serving copy there is replaced by
        the durable copy or else the first surviving replica (promotion);
        with neither, the record is dropped — its shuffle becomes
        incomplete, so dependent stages re-run exactly those partitions.
        A durable copy is never lost.  A promoted record re-enters its
        shuffle's table last, as any re-registration does.
        """
        loss = HostLoss()
        for shuffle_id in sorted(self._shuffles):
            statuses = self._shuffles[shuffle_id]
            for index in sorted(statuses):
                status = statuses[index]
                key = (shuffle_id, index)
                if host in status.replicas:
                    status.replicas.remove(host)
                    loss.degraded.append(key)
                elif status.host == host and host != status.durable_host:
                    del statuses[index]
                    if status.durable_host is not None:
                        status.host = status.durable_host
                    elif status.replicas:
                        status.host = status.replicas.pop(0)
                    else:
                        loss.lost.append((key, status))
                        continue
                    statuses[index] = status
                    loss.promoted.append(key)
        return loss

    def add_replica(self, shuffle_id: int, map_index: int, host: str) -> None:
        """Record one more copy of a registered output at ``host``."""
        status = self.map_status(shuffle_id, map_index)
        if host != status.host and host not in status.replicas:
            status.replicas.append(host)
            status.replicas.sort()

    def mark_durable(self, shuffle_id: int, map_index: int, host: str) -> None:
        """Record that a registered output has a durable copy, served
        from the object-store endpoint ``host``."""
        self.map_status(shuffle_id, map_index).durable_host = host

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
