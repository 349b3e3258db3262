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

Each handed-off output's one record, its
:class:`~repro.shuffle.map_output_tracker.MapStatus`, names the serving
worker (``host``) and the replica workers (``replicas``); the pool holds
only workers and their load.

Failure semantics — the point of this backend:

* the tracker applies a shuffle-worker loss to those records
  *synchronously inside* ``fail_host``: a lost replica is dropped and a
  lost serving copy is replaced by the first surviving replica
  (promotion), so the tracker never stays incomplete and reducers keep
  reading with **zero stage resubmissions**;
* ``on_host_failure`` counts the promotions and spawns background
  re-replication flows that restore ``r`` (recovery-tagged
  ``shuffle_replicate`` traffic, drained at the next stage barrier);
* only when the *last* copy dies does the tracker stay incomplete and
  the DAG scheduler fall back to lineage recovery, after which
  ``on_blocks_lost`` re-uploads the recomputed outputs.

Correctness: hand-off and promotion relocate shards without touching
records, and reads concatenate in global map-index order — reduce input
stays byte-identical to the fetch baseline (pinned by the equivalence
suite).  Every flow is counted where it lands, at the instant the
traffic monitor records it, so counter==monitor holds at every instant.

Own code: the worker pool, replication factor, hand-off plan
(``_stage``) and re-replication; the rest is
:class:`~repro.shuffle.service.ShuffleBackend`'s data path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from repro.shuffle.service import ShuffleBackend
from repro.shuffle.worker_pool import ShuffleWorker, ShuffleWorkerPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdd.dependencies import ShuffleDependency
    from repro.shuffle.map_output_tracker import (
        HostLoss, MapStatus, OutputKey, ShuffleShard,
    )

# Base replica count of the shuffle-worker pool (adaptively raised —
# capped at 3 — while WAN breakers are open or datacenters are
# blacklist-excluded).
REMOTE_REPLICATION = 2


class RemoteShuffleBackend(ShuffleBackend):
    """Dedicated shuffle workers with adaptive replication."""

    name = "remote"
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
        plan: List[Tuple[MapStatus, ShuffleWorker]] = []
        upload_flows = []
        spilled = 0.0
        for status in statuses:
            if recovery and status.handed_off:
                continue  # this copy survived; nothing to re-upload
            worker = pool.assign(topology.datacenter_of(status.host))
            if worker is None:
                continue  # no workers left anywhere: stay scattered
            size = status.total_size
            spilled += worker.accept(size)
            if status.host != worker.host and size > 0:
                upload_flows.append(
                    self._move(
                        status.host, worker.host, size,
                        "shuffle_upload", tenant, shuffle_id, recovery,
                    )
                )
            plan.append((status, worker))
        if upload_flows:
            yield context.sim.all_of(upload_flows)
        if spilled > 0:
            self.counters.spill_bytes += spilled
            yield context.sim.timeout(context.config.disk.write_time(spilled))

        # Phase 2: replicate each primary to r-1 other workers (other
        # datacenters first), sourced from the freshly-loaded primary.
        replica_plan: List[Tuple[MapStatus, ShuffleWorker,
                                 List[ShuffleWorker]]] = []
        replica_flows = []
        for status, worker in plan:
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
            replica_plan.append((status, worker, targets))
        if replica_flows:
            yield context.sim.all_of(replica_flows)

        # Relocate only after every flow landed: reducers launch after
        # this process returns, so no read can observe a half-made
        # hand-off.  The planned statuses keep their shards, so a map
        # host dying mid-upload loses nothing the flows carry.  Copies
        # a previous hand-off made elsewhere stay replicas.
        tracker = context.map_output_tracker
        for status, worker, targets in replica_plan:
            key = (shuffle_id, status.map_index)
            replicas = {target.host for target in targets}
            if tracker.has_map_output(*key):
                replicas.update(tracker.map_status(*key).replicas)
            self.relocate_map_output(
                shuffle_id, status.map_index, worker.host, status.shards,
                replicas, handed_off=True,
            )

    # ------------------------------------------------------------------
    # Failure handling: count promotions, re-replicate in the background
    # ------------------------------------------------------------------
    def on_host_failure(self, host: str, loss: HostLoss) -> None:
        """Called from ``fail_host`` *after* the tracker applied the
        loss — a record whose serving worker died already names its
        first surviving replica, so the tracker never lacks an output a
        replica could serve.  Here: count the promotions, un-stage a
        shuffle whose handed-off output lost its last copy (the next
        read escalates to lineage recovery), and restore the replication
        factor of every promoted or degraded output in the background."""
        if self._pool is None:
            return
        context = self.context
        if self._pool.on_worker_lost(host):
            self._provision(context.topology.datacenter_of(host))
        for (shuffle_id, _), status in loss.lost:
            if status.handed_off:
                self._staged.discard(shuffle_id)
        self.counters.replica_promotions += len(loss.promoted)
        factor = self._replication_factor()
        tracker = context.map_output_tracker
        for key in sorted(loss.promoted + loss.degraded):
            status = tracker.map_status(*key)
            missing = factor - 1 - len(status.replicas)
            if missing <= 0:
                continue
            targets = self._pool.replica_targets(
                status.host, missing, status.replicas
            )
            for target in targets:
                self._repairs.append(
                    context.sim.spawn(
                        self._re_replicate(
                            key, status.host, target, status.shards
                        ),
                        name=f"re-replicate:s{key[0]}m{key[1]}@{target.host}",
                    )
                )

    def _re_replicate(
        self,
        key: OutputKey,
        src_host: str,
        target: ShuffleWorker,
        shards: List[ShuffleShard],
    ):
        """Background copy restoring the replication factor (recovery-
        tagged; counted where it lands, like every move)."""
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
        # the target worker and the handed-off output are still alive.
        tracker = self.context.map_output_tracker
        if not (
            tracker.has_map_output(*key)
            and tracker.map_status(*key).handed_off
        ):
            return
        if not self._pool.is_worker(target.host):
            return
        spill = target.accept(size)
        if spill > 0:
            self.counters.spill_bytes += spill
        tracker.add_replica(*key, target.host)
