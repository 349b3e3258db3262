"""Remote shuffle service backend: durability instead of lineage.

FuxiShuffle-style (PAPERS.md): after a shuffle's map stage completes,
every map output is handed off to a dedicated per-datacenter *shuffle
worker* (:class:`~repro.shuffle.worker_pool.ShuffleWorkerPool`) and
replicated ``r`` ∈ {1, 2, 3} ways, preferring workers in *other*
datacenters so a whole-DC outage cannot take every copy.  ``r`` adapts
to cluster health: the configured base is raised (capped at 3) while
any WAN circuit breaker is open or any datacenter is blacklist-excluded
— the LinkHealthMonitor EWMA and BlacklistTracker signals from the
health layer.

Failure semantics — the point of this backend:

* a shuffle-worker loss promotes a surviving replica to primary
  *synchronously inside the failure handler*, so the map-output tracker
  never stays incomplete: reducers keep reading with **zero stage
  resubmissions**;
* a background re-replication flow then restores ``r`` (recovery-tagged
  ``shuffle_replicate`` traffic, drained at the next stage barrier);
* only when the *last* copy dies does the tracker stay incomplete and
  the DAG scheduler fall back to lineage recovery, after which
  ``on_blocks_lost`` re-uploads the recomputed outputs.

Correctness: hand-off and promotion relocate shards without touching
records, and reads concatenate in global map-index order — reduce input
stays byte-identical to the fetch baseline (pinned by the equivalence
suite).  Every flow is accounted at issue with an exact cancel refund,
so counter==monitor reconciliation holds at every quiescent point.

Own code: the worker pool, replication factor, hand-off plan
(``_stage``), promotion and re-replication; the rest is
:class:`~repro.shuffle.service.ShuffleBackend`'s data path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from repro.shuffle.service import ShuffleBackend
from repro.shuffle.worker_pool import ShuffleWorker, ShuffleWorkerPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdd.dependencies import ShuffleDependency
    from repro.shuffle.map_output_tracker import MapStatus
    from repro.shuffle.stores import ShuffleShard

# Base replica count of the shuffle-worker pool (adaptively raised —
# capped at 3 — while WAN breakers are open or datacenters are
# blacklist-excluded).
REMOTE_REPLICATION = 2


class RemoteShuffleBackend(ShuffleBackend):
    """Dedicated shuffle workers with adaptive replication."""

    name = "remote"
    scheme_label = "RemoteShuffle"
    flow_tags = ("shuffle", "shuffle_upload", "shuffle_replicate",
                 "transfer_to")

    def __init__(self) -> None:
        # After the hand-off every datacenter exposes at most a few
        # worker hosts: one coalesced flow per source worker host.
        super().__init__(coalesced_reads=True)
        self._pool: ShuffleWorkerPool | None = None
        # Background re-replication processes still in flight; drained
        # at the next stage barrier so the backend is quiescent whenever
        # the scheduler observes it.
        self._repairs: List[Any] = []

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ShuffleWorkerPool:
        if self._pool is None:
            self._pool = ShuffleWorkerPool(self.context.topology)
            for datacenter in sorted(self.context.topology.datacenters):
                self._provision(datacenter)
        return self._pool

    def _provision(self, datacenter: str) -> None:
        """Pin ``datacenter``'s workers, preferring blacklist-healthy
        hosts (any live host beats none when all are suspect)."""
        live = self.context.workers_in(datacenter)
        blacklist = self.context.blacklist
        if blacklist.enabled:
            healthy = [h for h in live if not blacklist.is_excluded(h)]
            if healthy:
                live = healthy
        if live:
            self._pool.provision(datacenter, live)

    def _replication_factor(self) -> int:
        """Base ``REMOTE_REPLICATION`` plus one per active health alarm
        (open WAN breaker into any DC, blacklist-excluded DC), capped to
        r ∈ [1, 3] — a deterministic function of current health state."""
        context = self.context
        factor = REMOTE_REPLICATION
        datacenters = sorted(context.topology.datacenters)
        if any(
            context.link_health.datacenter_quarantined(dc)
            for dc in datacenters
        ):
            factor += 1
        if context.blacklist.enabled and any(
            context.blacklist.is_datacenter_excluded(dc)
            for dc in datacenters
        ):
            factor += 1
        return max(1, min(3, factor))

    def shuffle_worker_host(self, datacenter: str) -> str | None:
        if self._pool is None:
            return None
        return self._pool.worker_host(datacenter)

    # ------------------------------------------------------------------
    # Hand-off: upload + replicate at the map barrier
    # ------------------------------------------------------------------
    def prepare_shuffle_input(self, dep: ShuffleDependency, tenant: str = ""):
        # Stage barrier: finish outstanding background repairs first, so
        # reads never race a half-made replica and the counters are
        # reconciled whenever the scheduler proceeds.
        if self._repairs:
            pending = [p for p in self._repairs if not p.triggered]
            self._repairs = []
            if pending:
                yield self.context.sim.all_of(pending)
        yield from super().prepare_shuffle_input(dep, tenant=tenant)

    def _stage(self, dep: ShuffleDependency, recovery: bool, tenant: str):
        """Hand every map output to the worker pool, then replicate.
        On recovery (lineage fallback: the last replica died) only the
        recomputed outputs, sitting at scattered executor hosts, go
        back to the pool, recovery-tagged."""
        shuffle_id = dep.shuffle_id
        context = self.context
        topology = context.topology
        pool = self._ensure_pool()
        statuses = context.map_output_tracker.map_statuses(shuffle_id)
        factor = self._replication_factor()

        # Phase 1: upload each map output to the least-loaded shuffle
        # worker of its own datacenter (cheap intra-DC flows, like the
        # pre-merge hop, but onto the dedicated tier).
        plan: List[Tuple[MapStatus, ShuffleWorker, List[ShuffleShard]]] = []
        upload_flows = []
        spilled = 0.0
        for status in statuses:
            key = (shuffle_id, status.map_index)
            if recovery and pool.primary(key) == status.host:
                continue  # this copy survived; nothing to re-upload
            worker = pool.assign(topology.datacenter_of(status.host))
            if worker is None:
                continue  # no workers left anywhere: stay scattered
            shards = self.shards_of(shuffle_id, status)
            size = status.total_size
            spilled += worker.accept(size)
            if status.host != worker.host and size > 0:
                upload_flows.append(
                    self._move(
                        status.host, worker.host, size,
                        "shuffle_upload", tenant, shuffle_id, recovery,
                    )
                )
            plan.append((status, worker, shards))
        if upload_flows:
            yield context.sim.all_of(upload_flows)
        if spilled > 0:
            self.counters.spill_bytes += spilled
            yield context.sim.timeout(context.config.disk.write_time(spilled))

        # Phase 2: replicate each primary to r-1 other workers (other
        # datacenters first), sourced from the freshly-loaded primary.
        replica_plan: List[Tuple[int, ShuffleWorker, List[ShuffleShard],
                                 List[ShuffleWorker]]] = []
        replica_flows = []
        for status, worker, shards in plan:
            targets = pool.replica_targets(worker.host, factor - 1)
            size = status.total_size
            for target in targets:
                spill = target.accept(size)
                if spill > 0:
                    self.counters.spill_bytes += spill
                self.counters.replication_bytes += size
                if size > 0:
                    replica_flows.append(
                        self._move(
                            worker.host, target.host, size,
                            "shuffle_replicate", tenant, shuffle_id, recovery,
                        )
                    )
            replica_plan.append((status.map_index, worker, shards, targets))
        if replica_flows:
            yield context.sim.all_of(replica_flows)

        # Relocate metadata/payloads only after every flow landed:
        # reducers launch after this process returns, so no read can
        # observe a half-made hand-off.
        tracker = context.map_output_tracker
        for map_index, worker, shards, targets in replica_plan:
            key = (shuffle_id, map_index)
            if not (
                tracker.has_map_output(*key)
                and tracker.map_status(*key).host == worker.host
            ):
                self.relocate_map_output(
                    shuffle_id, map_index, worker.host, shards
                )
            pool.record_primary(key, worker.host)
            for target in targets:
                pool.record_replica(key, target.host, shards)

    # ------------------------------------------------------------------
    # Failure handling: promote, then re-replicate in the background
    # ------------------------------------------------------------------
    def on_host_failure(self, host: str) -> None:
        """Called from ``fail_host`` *after* the tracker and store
        dropped the dead host's entries — promotion below re-registers
        surviving replicas synchronously, so the tracker is complete
        again before any other simulation event can observe the gap."""
        if self._pool is None:
            return
        pool = self._pool
        context = self.context
        datacenter = context.topology.datacenter_of(host)
        was_worker = pool.is_worker(host)
        orphaned, degraded = pool.on_worker_lost(host)
        repair_keys: List[Tuple[int, int]] = []
        for key in orphaned:
            survivors = pool.replica_hosts(key)
            if not survivors:
                # Last copy died: the tracker stays incomplete and the
                # next read escalates to lineage recovery.
                self._staged.discard(key[0])
                continue
            new_primary = survivors[0]
            self.relocate_map_output(
                key[0], key[1], new_primary,
                pool.replica_shards(key, new_primary),
            )
            self.counters.replica_promotions += 1
            pool.record_primary(key, new_primary)
            repair_keys.append(key)
        repair_keys.extend(degraded)
        if was_worker:
            self._provision(datacenter)
        factor = self._replication_factor()
        tracker = context.map_output_tracker
        for key in sorted(set(repair_keys)):
            primary = pool.primary(key)
            if primary is None:
                continue
            missing = factor - pool.copy_count(key)
            if missing <= 0 or not tracker.has_map_output(*key):
                continue
            shards = self.shards_of(key[0], tracker.map_status(*key))
            exclude = tuple(pool.replica_hosts(key))
            for target in pool.replica_targets(primary, missing, exclude):
                self._repairs.append(
                    context.sim.spawn(
                        self._re_replicate(key, primary, target, shards),
                        name=f"re-replicate:s{key[0]}m{key[1]}@{target.host}",
                    )
                )

    def _re_replicate(
        self,
        key: Tuple[int, int],
        src_host: str,
        target: ShuffleWorker,
        shards: List[ShuffleShard],
    ):
        """Background copy restoring the replication factor (recovery-
        tagged; accounted at issue with the usual exactness)."""
        pool = self._pool
        size = sum(shard.size_bytes for shard in shards)
        if size > 0:
            flow = self._move(
                src_host, target.host, size, "shuffle_replicate",
                shuffle_id=key[0], recovery=True,
            )
            self.counters.replication_bytes += size
            self.counters.rereplication_bytes += size
            yield flow
        # The copy only exists once it fully arrived — and only if both
        # the target worker and the shuffle are still alive.
        if pool is None or pool.primary(key) is None:
            return
        if not pool.is_worker(target.host):
            return
        spill = target.accept(size)
        if spill > 0:
            self.counters.spill_bytes += spill
        pool.record_replica(key, target.host, shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def remove_shuffle(self, shuffle_id: int) -> None:
        super().remove_shuffle(shuffle_id)
        if self._pool is not None:
            self._pool.drop_shuffle(shuffle_id)
