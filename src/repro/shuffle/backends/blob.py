"""Blob shuffle backend: map output durable in a regional object store.

BlobShuffle-style (PAPERS.md): at the map barrier every map output is
PUT to the :class:`~repro.storage.blob.BlobStore` endpoint of its own
region, and reducers GET it back with coalesced per-region flows.  The
trade the backend exists to expose (ROADMAP item 2):

* **durability by construction** — the object store survives any
  executor loss, including every map-side executor at once.  Failure
  handling is pure metadata repair (re-register the durable objects at
  their endpoints), zero stage resubmissions, zero recomputation;
* **dollars for latency** — every request is metered (PUT per map
  output, GET per map output read) and priced by
  :class:`~repro.metrics.billing.BlobPricing` on top of the egress
  bill, and every request pays a seeded service latency.  Recovery cost
  is therefore *re-read dollars*: relaunched reducers simply re-GET.

Transient regional outages (the ``blob_outage`` chaos kind) delay
requests until the window closes — retried, never failed — and with
flow retries enabled the GET flows themselves ride
``transfer_with_retry`` like every other backend's reads.

Reads concatenate shards in global map-index order, so reduce input is
byte-identical to the fetch baseline (pinned by the equivalence suite).

Own code: the object store, the PUT plan (``_stage``) and what a GET
costs before its bytes move (``_before_remote_reads``); the rest is
:class:`~repro.shuffle.service.ShuffleBackend`'s data path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from repro.shuffle.service import ShuffleBackend
from repro.storage.blob import BlobStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdd.dependencies import ShuffleDependency
    from repro.shuffle.map_output_tracker import MapStatus


class BlobShuffleBackend(ShuffleBackend):
    """Per-region object-store shuffle with request+egress pricing."""

    name = "blob"
    scheme_label = "BlobShuffle"
    flow_tags = ("blob_put", "blob_get", "transfer_to")

    def __init__(self) -> None:
        # One coalesced GET flow per endpoint host.
        super().__init__(coalesced_reads=True, read_tag="blob_get")
        self._store: BlobStore | None = None

    # ------------------------------------------------------------------
    # Store lifecycle
    # ------------------------------------------------------------------
    def _ensure_store(self) -> BlobStore:
        if self._store is None:
            self._store = BlobStore(
                self.context.topology,
                self.context.randomness.child("blob"),
            )
        return self._store

    def blob_store(self) -> BlobStore | None:
        return self._ensure_store() if self.context is not None else None

    def _wait_out_outage(self, region: str):
        """Transient-error loop: requests against a region inside its
        outage window retry (with the store's backoff) until it closes."""
        store = self._ensure_store()
        sim = self.context.sim
        remaining = store.outage_remaining(region, sim.now)
        while remaining > 0:
            store.transient_retries += 1
            yield sim.timeout(remaining + store.retry_backoff)
            remaining = store.outage_remaining(region, sim.now)

    # ------------------------------------------------------------------
    # Map barrier: PUT every map output to its region's endpoint
    # ------------------------------------------------------------------
    def _stage(self, dep: ShuffleDependency, recovery: bool, tenant: str):
        """PUT every map output not yet durable.  Recovery is only
        reachable when an output was lost *before* its PUT (the store
        had no copy): the recomputed one is written, recovery-tagged."""
        shuffle_id = dep.shuffle_id
        context = self.context
        topology = context.topology
        store = self._ensure_store()
        statuses = context.map_output_tracker.map_statuses(shuffle_id)

        # Latency draws happen here, in sorted status order, so the draw
        # sequence is a pure function of the seed and the layout.  Shards
        # are snapshotted *before* any yield: a map host dying mid-PUT
        # must not lose payloads the flows already carry.
        flows = []
        moves: List[Tuple[MapStatus, str, str, List[Any]]] = []
        latency = 0.0
        regions_touched: List[str] = []
        for status in statuses:
            key = (shuffle_id, status.map_index)
            existing = store.get_object(key)
            if recovery and existing is not None:
                continue  # still durable; nothing to re-write
            region = topology.datacenter_of(status.host)
            endpoint = store.endpoint_host(region)
            if region not in regions_touched:
                regions_touched.append(region)
            latency = max(latency, store.request_latency("put"))
            shards = self.shards_of(shuffle_id, status)
            if status.host != endpoint and status.total_size > 0:
                flows.append(
                    self._move(
                        status.host, endpoint, status.total_size,
                        "blob_put", tenant, shuffle_id, recovery,
                    )
                )
            moves.append((status, region, endpoint, shards))
        for region in regions_touched:
            yield from self._wait_out_outage(region)
        if latency > 0:
            yield context.sim.timeout(latency)
        if flows:
            yield context.sim.all_of(flows)
        # Commit objects and relocate metadata only after every PUT
        # landed; reducers launch after this process returns.
        tracker = context.map_output_tracker
        for status, region, endpoint, shards in moves:
            store.put(
                region, (shuffle_id, status.map_index),
                shards, status.total_size,
            )
            self.counters.blob_puts += 1
            if status.host != endpoint or not tracker.has_map_output(
                shuffle_id, status.map_index
            ):
                # Relocation to the endpoint — or a restore, when the
                # map host died while its PUT was in flight.
                self.relocate_map_output(
                    shuffle_id, status.map_index, endpoint, shards
                )

    # ------------------------------------------------------------------
    # Reduce-side GETs: what a request costs before its bytes move
    # ------------------------------------------------------------------
    def _before_remote_reads(self, requests: int, remote: List[Tuple[str, float]]):
        """One metered GET per map output actually read.  Each batched
        request (one per endpoint host) pays one service-latency draw;
        outage windows at any touched endpoint region delay (never
        fail) it."""
        store = self._ensure_store()
        store.note_get(requests)
        self.counters.blob_gets += requests
        latency = 0.0
        for source, _ in remote:
            region = self.context.topology.datacenter_of(source)
            yield from self._wait_out_outage(region)
            latency = max(latency, store.request_latency("get"))
        if latency > 0:
            yield self.context.sim.timeout(latency)

    # ------------------------------------------------------------------
    # Failure handling: metadata repair from durable objects
    # ------------------------------------------------------------------
    def on_host_failure(self, host: str) -> None:
        """The object store outlives any executor.  ``fail_host``
        dropped the tracker/store entries registered at ``host``; every
        durable object re-registers at its endpoint synchronously, so
        reads continue with zero stage resubmissions — recovery cost is
        the re-read traffic the relaunched tasks pay, in dollars."""
        if self._store is None:
            return
        context = self.context
        tracker = context.map_output_tracker
        for obj in self._store.objects():
            shuffle_id, map_index = obj.key
            if not tracker.is_registered(shuffle_id):
                continue
            if tracker.has_map_output(shuffle_id, map_index):
                continue
            endpoint = self._store.endpoint_host(obj.region)
            self.relocate_map_output(
                shuffle_id, map_index, endpoint, obj.shards
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def remove_shuffle(self, shuffle_id: int) -> None:
        super().remove_shuffle(shuffle_id)
        if self._store is not None:
            self._store.drop_shuffle(shuffle_id)
