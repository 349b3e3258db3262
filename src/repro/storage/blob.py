"""BlobStore: a per-region object store for shuffle payloads.

The BlobShuffle design point (PAPERS.md): map output is written to a
regional object store and is then *durable by construction* — executor
or even whole-fleet loss costs re-read dollars (GET requests + egress),
never recomputation.  The store itself is deliberately simple:

* one *endpoint host* per region — the lexicographically first host of
  the datacenter in the **topology** (not the executor fleet), so the
  front-end keeps serving flows even after every executor in the region
  died (`fail_host` shrinks the executor dict, never the topology);
* durable object copies keyed ``(shuffle_id, map_index)``, held per
  region with their shard payloads, surviving any host loss;
* request metering (PUT/GET counts, priced per-request by
  :class:`repro.metrics.billing.BlobPricing`) and per-request latency
  draws from a dedicated :class:`~repro.simulation.random_source.
  RandomSource` stream (identical across plain/sanitized runs);
* transient-error windows: a ``blob_outage`` chaos event opens a timed
  regional outage, and requests issued inside the window retry until it
  closes (counted in ``transient_retries``).

The store never issues flows itself — the ``blob`` backend drives it
and accounts every byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.topology import Topology
    from repro.shuffle.map_output_tracker import ShuffleShard
    from repro.simulation.random_source import RandomSource

ObjectKey = Tuple[int, int]


class BlobObject:
    """One durable object: a map output's shard payloads in one region."""

    __slots__ = ("key", "region", "size_bytes", "shards")

    def __init__(
        self,
        key: ObjectKey,
        region: str,
        size_bytes: float,
        shards: List[ShuffleShard],
    ) -> None:
        self.key = key
        self.region = region
        self.size_bytes = size_bytes
        self.shards = shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlobObject({self.key}, {self.region}, {self.size_bytes:.0f}B)"


class BlobStore:
    """Per-region durable objects, request metering, outage windows."""

    __slots__ = ("topology", "randomness", "base_latency", "latency_jitter",
                 "retry_backoff", "_objects", "_outage_until", "puts", "gets",
                 "transient_retries")

    def __init__(
        self,
        topology: Topology,
        randomness: RandomSource,
        base_latency: float = 0.02,
        latency_jitter: float = 0.01,
        retry_backoff: float = 0.1,
    ) -> None:
        self.topology = topology
        self.randomness = randomness
        self.base_latency = base_latency
        self.latency_jitter = latency_jitter
        self.retry_backoff = retry_backoff
        self._objects: Dict[ObjectKey, BlobObject] = {}
        self._outage_until: Dict[str, float] = {}
        self.puts = 0
        self.gets = 0
        self.transient_retries = 0

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def endpoint_host(self, region: str) -> str:
        """The region's front-end host — a topology member, so it routes
        flows whether or not its executor is still alive."""
        return sorted(self.topology.hosts_in(region))[0]

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    def put(
        self,
        region: str,
        key: ObjectKey,
        shards: List[ShuffleShard],
        size_bytes: float,
    ) -> None:
        self._objects[key] = BlobObject(key, region, size_bytes, shards)
        self.puts += 1

    def note_get(self, count: int = 1) -> None:
        self.gets += count

    def get_object(self, key: ObjectKey) -> Optional[BlobObject]:
        return self._objects.get(key)

    def objects(self) -> List[BlobObject]:
        """Every durable object, in sorted key order (deterministic)."""
        return [self._objects[key] for key in sorted(self._objects)]

    def drop_shuffle(self, shuffle_id: int) -> None:
        for key in [k for k in self._objects if k[0] == shuffle_id]:
            del self._objects[key]

    # ------------------------------------------------------------------
    # Latency and outages
    # ------------------------------------------------------------------
    def request_latency(self, kind: str) -> float:
        """One request's service latency (seeded, never negative)."""
        draw = self.randomness.gauss(
            f"blob:{kind}", self.base_latency, self.latency_jitter
        )
        return max(0.0, draw)

    def open_outage(self, region: str, until: float) -> None:
        if region not in self.topology.datacenters:
            raise KeyError(f"unknown region {region!r}")
        self._outage_until[region] = max(
            self._outage_until.get(region, 0.0), until
        )

    def outage_remaining(self, region: str, now: float) -> float:
        """Seconds left in ``region``'s outage window (0 when healthy)."""
        return max(0.0, self._outage_until.get(region, 0.0) - now)
