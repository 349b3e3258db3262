"""Performance counters for the simulation substrate itself.

The figure benchmarks regenerate the paper's results by pushing
thousands of concurrent flows through :class:`repro.network.fabric.
NetworkFabric`; the counters here make the cost of that substrate
visible in every run, so a regression in the solver hot path shows up
as a number, not as a mysteriously slower benchmark.

``FabricPerfCounters`` is owned by the fabric (``fabric.perf``) and
incremented from the solver event loop:

* ``events``            — recompute/wake events processed;
* ``solves``            — fair-share solver invocations;
* ``flows_touched``     — total flows re-solved across all solves (the
  vector drive re-plans only the dirty connected component, so this is
  far below ``solves * active_flows``);
* ``solver_seconds``    — wall-clock time inside the solver + component
  bookkeeping (real time, not simulated time);
* ``total_flows``       — flows ever admitted;
* ``peak_active_flows`` — high-water mark of concurrent flows;
* ``jitter_noops``      — capacity-change notifications skipped because
  the perturbed links carried zero active flows;
* ``plan_segments_planned`` / ``plan_segments_fired`` — cascade-plan
  segments solved (one progressive fill each for a general plan) and
  segments whose departure timer fired.  Their ratio is the planner's
  useful-outcome share: the rest was solved for a future that a
  perturbation replaced (vector drive only);
* ``plans_uniform`` / ``plans_scalar`` / ``plans_vector`` — cascade
  plans built, by shape (see :mod:`repro.network.cascade`; they sum to
  ``solves`` on the vector drive).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class FabricPerfCounters:
    """Counters of the fabric/solver hot path (see module docstring)."""

    events: int = 0
    solves: int = 0
    flows_touched: int = 0
    solver_seconds: float = 0.0
    total_flows: int = 0
    peak_active_flows: int = 0
    jitter_noops: int = 0
    plan_segments_planned: int = 0
    plan_segments_fired: int = 0
    plans_uniform: int = 0
    plans_scalar: int = 0
    plans_vector: int = 0

    def note_plan(self, shape: str) -> None:
        """Record one cascade plan built (``CascadePlan.shape``)."""
        counter = "plans_" + shape
        setattr(self, counter, getattr(self, counter) + 1)

    def note_admission(self, active_flows: int) -> None:
        """Record one admitted flow and the new concurrency level."""
        self.total_flows += 1
        if active_flows > self.peak_active_flows:
            self.peak_active_flows = active_flows

    @property
    def mean_flows_per_solve(self) -> float:
        return self.flows_touched / self.solves if self.solves else 0.0

    def as_dict(self) -> Dict[str, float]:
        summary = {f.name: float(getattr(self, f.name)) for f in fields(self)}
        summary["mean_flows_per_solve"] = self.mean_flows_per_solve
        return summary


@dataclass
class ShuffleCounters:
    """Per-backend counters of the shuffle data path.

    Owned and incremented by the active
    :class:`repro.shuffle.service.ShuffleBackend`; every byte it moves
    over the network is counted here, split WAN vs. intra-datacenter, at
    the instant the fabric lands it with the traffic monitor (a cancelled
    flow's delivered part; nothing while in flight), so the invariant
    *counter bytes == traffic-monitor bytes for the backend's flow tags*
    holds at every instant (checked at every stage boundary under the
    sanitizer and by the property suite in ``tests/shuffle``).

    * ``shuffles_registered``     — shuffles whose lifecycle the service
      opened (idempotent re-registration is not re-counted);
    * ``map_outputs_registered``  — sharded map outputs published;
    * ``reduce_reads``            — reduce-side read operations served;
    * ``blocks_fetched``          — remote reads issued by reducers
      (per-shard flows for the fetch backend, per-source-host coalesced
      flows for the pre-merge backend);
    * ``blocks_pushed``           — partitions staged at a ``transfer_to``
      boundary for a receiver pull (the push path's unit of work);
    * ``merge_rounds``            — per-(shuffle, datacenter) merge
      operations executed by the pre-merge backend;
    * ``merge_fan_in``            — total map outputs consolidated across
      all merge rounds (``mean_merge_fan_in`` derives the average);
    * ``wan_bytes`` / ``intra_dc_bytes`` — network bytes moved by the
      backend, split by whether the flow crossed a datacenter boundary;
    * ``recovery_wan_bytes`` / ``recovery_intra_dc_bytes`` — the subset
      of the above moved by *recovery* work (retried attempts, tasks
      relaunched after an executor loss, lineage-recomputed parents, and
      pre-merge re-consolidation) — always <= the matching total, so
      the counter/monitor equivalence invariant is unchanged;
    * ``local_bytes``             — shuffle input served from local disk
      (no network flow);
    * ``replication_bytes``       — bytes copied to additional replicas
      by a durability-first backend (the ``remote`` shuffle-worker
      pool's r-1 extra copies) during normal operation;
    * ``rereplication_bytes``     — the subset of replica copies made to
      *restore* the replication factor after a worker loss (always also
      counted as recovery bytes above);
    * ``replica_promotions``      — map outputs whose primary copy was
      lost and a surviving replica took over serving reads (the
      durability path's zero-resubmission handoff);
    * ``spill_bytes``             — bytes a shuffle worker accepted past
      its memory buffer and spilled to local disk (no network flow);
    * ``blob_puts`` / ``blob_gets`` — object-store requests issued by
      the ``blob`` backend (priced per-request by
      :class:`repro.metrics.billing.BlobPricing`).
    """

    shuffles_registered: int = 0
    map_outputs_registered: int = 0
    reduce_reads: int = 0
    blocks_fetched: int = 0
    blocks_pushed: int = 0
    merge_rounds: int = 0
    merge_fan_in: int = 0
    wan_bytes: float = 0.0
    intra_dc_bytes: float = 0.0
    recovery_wan_bytes: float = 0.0
    recovery_intra_dc_bytes: float = 0.0
    local_bytes: float = 0.0
    replication_bytes: float = 0.0
    rereplication_bytes: float = 0.0
    replica_promotions: int = 0
    spill_bytes: float = 0.0
    blob_puts: int = 0
    blob_gets: int = 0
    # Network bytes attributable to one shuffle id (reduce fetches and
    # pre-merge consolidation; transfer_to flows are keyed by transfer,
    # not shuffle, and appear only in the totals above).
    network_bytes_by_shuffle: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def network_bytes(self) -> float:
        return self.wan_bytes + self.intra_dc_bytes

    @property
    def mean_merge_fan_in(self) -> float:
        return self.merge_fan_in / self.merge_rounds if self.merge_rounds else 0.0

    def note_flow(
        self,
        src_dc: str,
        dst_dc: str,
        size_bytes: float,
        shuffle_id: int | None = None,
        recovery: bool = False,
    ) -> None:
        """Count the bytes one backend flow delivered (its ``on_land``)."""
        if src_dc != dst_dc:
            self.wan_bytes += size_bytes
            if recovery:
                self.recovery_wan_bytes += size_bytes
        else:
            self.intra_dc_bytes += size_bytes
            if recovery:
                self.recovery_intra_dc_bytes += size_bytes
        if shuffle_id is not None:
            self.network_bytes_by_shuffle[shuffle_id] = (
                self.network_bytes_by_shuffle.get(shuffle_id, 0.0) + size_bytes
            )

    def note_local_read(self, size_bytes: float) -> None:
        self.local_bytes += size_bytes

    def as_dict(self) -> Dict[str, float]:
        """Flat float summary (per-shuffle breakdown omitted)."""
        summary = {
            f.name: float(getattr(self, f.name))
            for f in fields(self)
            if f.name != "network_bytes_by_shuffle"
        }
        summary["network_bytes"] = self.network_bytes
        summary["mean_merge_fan_in"] = self.mean_merge_fan_in
        return summary


@dataclass
class HealthCounters:
    """What the health-aware degradation machinery did during one run.

    Owned by :class:`repro.cluster.context.ClusterContext`
    (``context.health``) and incremented by the
    :class:`~repro.failures.health.BlacklistTracker`, the
    :class:`~repro.failures.health.LinkHealthMonitor`, the flow-retry
    layer, and the backends' graceful-degradation hooks.  Where
    :class:`RecoveryCounters` records the *blunt* instruments (attempt
    relaunches, lineage resubmission), these counters record the
    *graceful* middle of the failure spectrum.

    * ``stage_exclusions``        — (executor, stage) pairs excluded
      after repeated task failures in one stage;
    * ``hosts_blacklisted``       — executors excluded app-wide (timed);
    * ``datacenters_blacklisted`` — datacenter-level escalations;
    * ``blacklist_evictions``     — timed expiries of app-wide
      exclusions (the executor returns to service);
    * ``placements_vetoed``       — placement decisions the scheduler
      changed because the candidate host was excluded: one per dispatch
      decision that passed over a free, allowed, eligible host;
    * ``breaker_trips``           — WAN circuit breakers opened
      (including half-open probes that failed and re-opened);
    * ``breaker_probes``          — probe flows admitted in half-open;
    * ``breaker_closes``          — breakers closed after successful
      probes;
    * ``flow_retries``            — flows cancelled at their deadline
      and re-issued (possibly from another replica);
    * ``retry_wasted_bytes``      — bytes delivered by flows that were
      then abandoned (transferred but thrown away);
    * ``reelections``             — aggregation-datacenter or merger
      re-elections after the previous choice became unhealthy;
    * ``fallback_activations``    — shuffles degraded to plain fetch
      semantics because no healthy merger could be elected.
    """

    stage_exclusions: int = 0
    hosts_blacklisted: int = 0
    datacenters_blacklisted: int = 0
    blacklist_evictions: int = 0
    placements_vetoed: int = 0
    breaker_trips: int = 0
    breaker_probes: int = 0
    breaker_closes: int = 0
    flow_retries: int = 0
    retry_wasted_bytes: float = 0.0
    reelections: int = 0
    fallback_activations: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass
class RecoveryCounters:
    """What the fault-tolerance machinery did during one context's life.

    Owned by :class:`repro.cluster.context.ClusterContext`
    (``context.recovery``) and incremented by the chaos injector, the
    task scheduler (executor-loss relaunches), and the DAG scheduler
    (FetchFailed handling, lineage resubmission, speculation).  Recovery
    *byte* totals live in :class:`ShuffleCounters`
    (``recovery_wan_bytes`` / ``recovery_intra_dc_bytes``) because bytes
    are moved, and therefore accounted, by the shuffle backend.

    * ``executor_crashes``    — executor processes crashed (slots and
      running attempts lost; stored blocks survive, as with Spark's
      external shuffle service);
    * ``hosts_lost``          — whole hosts taken down (storage too);
    * ``datacenter_outages``  — datacenter-wide outage events fired;
    * ``merger_losses``       — merger-host-loss events fired;
    * ``shuffle_worker_losses`` — dedicated shuffle-worker hosts lost
      (the ``shuffle_worker`` chaos kind);
    * ``blob_outages``        — object-store regional outage windows
      opened (the ``blob_outage`` chaos kind);
    * ``wan_degradations``    — WAN-link capacity changes applied
      (each flap counts its degrade and its restore);
    * ``wan_partitions``      — asymmetric WAN partitions opened (the
      ``partition`` chaos kind; heals are not counted separately);
    * ``tasks_relaunched``    — running attempts interrupted by an
      executor loss and resubmitted elsewhere;
    * ``fetch_failures``      — task attempts that found boundary input
      missing (Spark's FetchFailed);
    * ``stages_resubmitted``  — parent-stage resubmissions from lineage;
    * ``tasks_recomputed``    — parent partitions re-executed by those
      resubmissions;
    * ``speculative_launched`` / ``speculative_wins`` — duplicate
      attempts launched for stragglers, and how many finished first.
    """

    executor_crashes: int = 0
    hosts_lost: int = 0
    datacenter_outages: int = 0
    merger_losses: int = 0
    shuffle_worker_losses: int = 0
    blob_outages: int = 0
    wan_degradations: int = 0
    wan_partitions: int = 0
    tasks_relaunched: int = 0
    fetch_failures: int = 0
    stages_resubmitted: int = 0
    tasks_recomputed: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}
