"""BlobStore: the regional object-store service the blob backend PUTs to.

The BlobShuffle design point (PAPERS.md): map output is written to a
regional object store and is then *durable by construction* — executor
or even whole-fleet loss costs re-read dollars (GET requests + egress),
never recomputation.  The store itself is deliberately simple:

* one *endpoint host* per region — the lexicographically first host of
  the datacenter in the **topology** (not the executor fleet), so the
  front-end keeps serving flows even after every executor in the region
  died (`fail_host` shrinks the executor dict, never the topology);
* per-request latency draws from a dedicated
  :class:`~repro.simulation.random_source.RandomSource` stream
  (identical across plain/sanitized runs);
* transient-error windows: a ``blob_outage`` chaos event opens a timed
  regional outage, and requests issued inside the window retry until it
  closes (counted in ``transient_retries``).

The store holds no per-output state: a PUT output's one record is its
:class:`~repro.shuffle.map_output_tracker.MapStatus`, which names the
endpoint as its durable copy, and its requests are metered in the
backend's ``ShuffleCounters`` (``blob_puts`` / ``blob_gets``, priced
per request by :class:`repro.metrics.billing.BlobPricing`).  The store
never issues flows itself — the ``blob`` backend drives it and accounts
every byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.topology import Topology
    from repro.simulation.random_source import RandomSource


class BlobStore:
    """Per-region endpoints, request latency and outage windows."""

    __slots__ = ("topology", "randomness", "base_latency", "latency_jitter",
                 "retry_backoff", "_outage_until", "transient_retries")

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
        self._outage_until: Dict[str, float] = {}
        self.transient_retries = 0

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def endpoint_host(self, region: str) -> str:
        """The region's front-end host — a topology member, so it routes
        flows whether or not its executor is still alive."""
        return sorted(self.topology.hosts_in(region))[0]

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
