"""DAGScheduler: runs a job's stage graph on the simulator.

Responsibilities (mirroring Spark's DAGScheduler plus the paper's
modifications):

* hand the lineage to the shuffle service for backend-specific
  rewriting (the push backend embeds implicit ``transfer_to`` before
  every shuffle, §IV-D; other backends leave it unchanged) — the
  scheduler itself is strategy-agnostic;
* build the stage DAG (shuffle *and* transfer boundaries);
* submit stages parents-first; shuffle parents are barriers, while
  transfer-producer parents are *pipelined*: each receiver task becomes
  runnable the instant its producer task finishes;
* resolve aggregator datacenters when a transfer-producer stage is
  submitted, from the distribution of its input (§IV-D);
* compute task placement preferences: receiver tasks prefer every host
  of the aggregator datacenter; reducers prefer hosts holding at least a
  configured fraction of their input; map tasks prefer their input
  block/cache replicas;
* collect result-stage output and assemble the action's return value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.aggregation import select_aggregator_datacenters
from repro.errors import FetchFailedError, SchedulerError, StageRecoveryError
from repro.rdd.dependencies import (
    NarrowDependency,
    RangeDependency,
    ShuffleDependency,
    TransferDependency,
)
from repro.rdd.rdd import RDD
from repro.scheduler.stage import Stage, StageKind, build_stages
from repro.scheduler.task import Task, TaskResult
from repro.simulation.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext

# Lineage recovery (Spark's FetchFailed path): how many times one stage
# may be resubmitted when its output is lost (Spark's
# ``spark.stage.maxConsecutiveAttempts`` is 4), how long the first
# resubmission waits (doubling each time), and how many FetchFailed
# retries a single consumer task gets before the job fails.
MAX_STAGE_RETRIES = 4
STAGE_RETRY_BACKOFF = 0.2
MAX_FETCH_FAILURES_PER_TASK = 8


class DAGScheduler:
    """One per cluster context; ``run_job`` is a simulation process."""

    def __init__(
        self,
        context: ClusterContext,
        metrics=None,
        tenant: Optional[str] = None,
        allowed_hosts: Optional[frozenset] = None,
    ) -> None:
        self.context = context
        self.sim = context.sim
        # Each scheduler instance drives one job at a time; concurrent
        # jobs use separate instances (ClusterContext.submit_job) with
        # their own metrics collectors.
        self.metrics = metrics if metrics is not None else context.metrics
        # Multi-tenant identity: stamped onto every stage so the data
        # path attributes (and fair-share-weights) the job's flows; the
        # optional host share confines its tasks to the slice of the
        # executor pool the inter-job scheduler granted.
        self.tenant = tenant
        self.allowed_hosts = allowed_hosts
        self._stage_processes: Dict[int, object] = {}
        self._task_done_events: Dict[int, List[Event]] = {}
        # Lineage recovery state (per job): in-flight parent-stage
        # resubmissions (so concurrent FetchFailed consumers join one
        # recovery instead of racing) and per-stage resubmit counts
        # (bounded by MAX_STAGE_RETRIES).
        self._active_recoveries: Dict[int, object] = {}
        self._stage_resubmits: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Job entry point (a generator to be spawned on the simulator)
    # ------------------------------------------------------------------
    def run_job(self, final_rdd: RDD, action: str, save_path: Optional[str] = None):
        final_rdd = self.context.shuffle_service.prepare_job(final_rdd)
        result_stage, stages = build_stages(final_rdd)
        job = self.context.jobs_started
        self.context.jobs_started = job + 1
        for stage in stages:
            stage.job = job
            stage.tenant = self.tenant
        if action == "save":
            result_stage.save_path = save_path  # type: ignore[attr-defined]
        # Per-job state: stage processes and per-task completion events.
        self._stage_processes = {}
        self._active_recoveries = {}
        self._stage_resubmits = {}
        self._task_done_events = {
            stage.stage_id: [
                self.sim.event(name=f"stage{stage.stage_id}:task{p}")
                for p in range(stage.num_partitions)
            ]
            for stage in stages
        }
        self._action = action
        metrics = self.metrics
        metrics.on_job_start(self.sim.now)
        process = self._ensure_stage_running(result_stage)
        results: List[TaskResult] = yield process
        metrics.on_job_end(self.sim.now)
        return self._assemble(action, results)

    # ------------------------------------------------------------------
    # Stage orchestration
    # ------------------------------------------------------------------
    def _ensure_stage_running(self, stage: Stage):
        existing = self._stage_processes.get(stage.stage_id)
        if existing is not None:
            return existing
        process = self.sim.spawn(
            self._stage_process(stage), name=stage.name
        )
        self._stage_processes[stage.stage_id] = process
        return process

    def _stage_process(self, stage: Stage):
        context = self.context
        # Reuse already-complete outputs (iterative jobs, shared lineage).
        if self._stage_already_complete(stage):
            for event in self._task_done_events[stage.stage_id]:
                event.succeed(None)
            return []

        # Launch parents; shuffle-map parents are barriers.
        barrier = []
        for parent in stage.parents:
            parent_process = self._ensure_stage_running(parent)
            if parent.kind is not StageKind.TRANSFER_PRODUCER:
                barrier.append(parent_process)
        if barrier:
            yield self.sim.all_of(barrier)

        # Register the outgoing shuffle before any task can complete.
        if stage.kind is StageKind.SHUFFLE_MAP:
            dep = stage.outgoing_dep
            assert isinstance(dep, ShuffleDependency)
            context.shuffle_service.register_shuffle(
                dep.shuffle_id, stage.num_partitions
            )
        # Resolve the aggregator datacenter(s) at producer submission
        # time, from the map-input distribution (§IV-D).
        if stage.kind is StageKind.TRANSFER_PRODUCER:
            self._resolve_destination(stage)

        self.metrics.on_stage_start(stage, self.sim.now)
        # Backend hook between the map barrier and task launch: the
        # pre-merge backend consolidates map output per datacenter here;
        # other backends yield nothing.
        yield from context.shuffle_service.prepare_stage_inputs(stage)
        done_events = self._task_done_events[stage.stage_id]
        launch_times: Dict[int, float] = {}
        for partition in range(stage.num_partitions):
            self.sim.spawn(
                self._task_flow(
                    stage, partition, done_events[partition], launch_times
                ),
                name=f"{stage.name}[{partition}]",
            )
        if context.config.scheduling.speculation:
            self.sim.spawn(
                self._speculation_monitor(stage, done_events, launch_times),
                name=f"{stage.name}:speculation",
            )
        gathered = yield self.sim.all_of(done_events)
        self.metrics.on_stage_end(stage, self.sim.now)
        sanitizer = context.fabric.sanitizer
        if sanitizer is not None:
            # Stage boundary: every landed flow's admission-time ledger
            # charge must reconcile bit-for-bit with the monitor's
            # completion-time record (in-flight flows excluded).
            sanitizer.check_ledger(
                context.fabric.tenant_ledger,
                context.fabric.monitor,
                iter(context.fabric.active_flow_ids()),
            )
        return gathered

    def _task_flow(
        self,
        stage: Stage,
        partition: int,
        done: Event,
        launch_times: Optional[Dict[int, float]] = None,
    ):
        """Wait for pipelined producers, then submit and await the task.

        Any failure is surfaced through ``done`` so the stage (and the
        whole job) fails loudly instead of deadlocking.
        """
        try:
            yield from self._task_flow_body(stage, partition, done, launch_times)
        except BaseException as error:  # noqa: BLE001 - propagate to stage
            if not done.triggered:
                done.fail(error)

    def _task_flow_body(
        self,
        stage: Stage,
        partition: int,
        done: Event,
        launch_times: Optional[Dict[int, float]],
    ):
        if self._partition_output_exists(stage, partition):
            # Partial stage re-execution (host failure recovery): only
            # the partitions whose output was lost re-run.
            done.succeed(None)
            return
        required = stage.required_transfers(partition)
        if required:
            gates = [
                self._task_done_events[producer.stage_id][index]
                for producer, index in required
            ]
            yield self.sim.all_of(gates)
        result = yield from self._submit_with_recovery(
            stage, partition, launch_times
        )
        if not done.triggered:
            # A speculative duplicate may have won the race already.
            done.succeed(result)

    # ------------------------------------------------------------------
    # FetchFailed recovery (Spark's lineage-resubmission path)
    # ------------------------------------------------------------------
    def _submit_with_recovery(
        self,
        stage: Stage,
        partition: int,
        launch_times: Optional[Dict[int, float]] = None,
        recovery: bool = False,
    ):
        """Submit one task; on FetchFailed, resubmit the lost parent
        from lineage and retry with a fresh attempt.

        Mirrors Spark's DAGScheduler: the consumer attempt dies, the
        stage producing the missing output is resubmitted (only its
        missing partitions re-run), and the consumer is retried.  The
        retry loop is bounded by ``MAX_FETCH_FAILURES_PER_TASK``;
        resubmissions themselves are bounded per stage.
        """
        config = self.context.config.scheduling
        fetch_failures = 0
        while True:
            task = Task(
                stage,
                partition,
                preferred_hosts=self._preferred_hosts(stage, partition),
                action=self._action if stage.kind is StageKind.RESULT else None,
            )
            task.recovery = recovery or fetch_failures > 0
            task.allowed_hosts = self.allowed_hosts
            scheduler = self.context.task_scheduler
            if stage.is_receiver_stage and task.preferred_hosts:
                # Receivers queue for the aggregator datacenter rather
                # than scatter: pushing elsewhere would defeat
                # aggregation.  They run on the I/O-bound transfer
                # service, not compute slots.
                task.locality_wait_host = 0.5
                task.locality_wait_datacenter = (
                    config.receiver_datacenter_wait
                )
                scheduler = self.context.transfer_scheduler
            if launch_times is not None:
                launch_times[partition] = self.sim.now
            try:
                result: TaskResult = yield scheduler.submit(task)
            except FetchFailedError as failure:
                fetch_failures += 1
                self.context.recovery.fetch_failures += 1
                if fetch_failures >= MAX_FETCH_FAILURES_PER_TASK:
                    raise
                yield from self._recover_lost_parent(stage, failure)
                continue
            self.metrics.on_task_end(result)
            return result

    def _recover_lost_parent(self, stage: Stage, failure: FetchFailedError):
        """Resubmit the parent stage whose boundary output went missing.

        Concurrent consumers failing on the same parent join a single
        in-flight resubmission instead of each spawning their own.
        """
        parent = self._parent_for_failure(stage, failure)
        process = self._active_recoveries.get(parent.stage_id)
        if process is None or process.triggered:
            process = self.sim.spawn(
                self._resubmit_stage(parent),
                name=f"{parent.name}:resubmit",
            )
            self._active_recoveries[parent.stage_id] = process
        yield process

    def _parent_for_failure(
        self, stage: Stage, failure: FetchFailedError
    ) -> Stage:
        for parent in stage.parents:
            dep = parent.outgoing_dep
            if (
                isinstance(dep, ShuffleDependency)
                and failure.shuffle_id == dep.shuffle_id
            ):
                return parent
            if (
                isinstance(dep, TransferDependency)
                and failure.transfer_id == dep.transfer_id
            ):
                return parent
        raise SchedulerError(
            f"stage {stage.name}: no parent produces the input of {failure}"
        )

    def _resubmit_stage(self, stage: Stage):
        """Re-run exactly the missing partitions of ``stage`` (a
        simulation process; backoff doubles per consecutive resubmit)."""
        context = self.context
        count = self._stage_resubmits.get(stage.stage_id, 0) + 1
        self._stage_resubmits[stage.stage_id] = count
        if count > MAX_STAGE_RETRIES:
            raise StageRecoveryError(stage.name, count)
        context.recovery.stages_resubmitted += 1
        yield self.sim.timeout(STAGE_RETRY_BACKOFF * 2 ** (count - 1))
        # A failed transfer destination is re-elected before the
        # producers re-stage: receivers read ``resolved_destinations``
        # fresh on every retry, so the new choice takes effect at once.
        if stage.kind is StageKind.TRANSFER_PRODUCER:
            self._resolve_destination(stage, reelect=True)
        missing = [
            partition
            for partition in range(stage.num_partitions)
            if not self._partition_output_exists(stage, partition)
        ]
        context.recovery.tasks_recomputed += len(missing)
        if missing:
            runs = [
                self.sim.spawn(
                    self._submit_with_recovery(stage, partition, recovery=True),
                    name=f"{stage.name}[{partition}]:recompute",
                )
                for partition in missing
            ]
            yield self.sim.all_of(runs)
        # Backend repair hook: the pre-merge backend re-consolidates the
        # recovered outputs onto a surviving merger host before any
        # consumer retries its read.
        dep = stage.outgoing_dep
        if isinstance(dep, ShuffleDependency):
            yield from context.shuffle_service.on_blocks_lost(
                dep, tenant=stage.tenant or ""
            )

    # ------------------------------------------------------------------
    # Speculative execution (spark.speculation)
    # ------------------------------------------------------------------
    def _speculation_monitor(
        self,
        stage: Stage,
        done_events: List[Event],
        launch_times: Dict[int, float],
    ):
        config = self.context.config.scheduling
        speculated: set = set()
        total = len(done_events)
        if total == 0:
            return
        while True:
            yield self.sim.timeout(config.speculation_interval)
            completed = [event for event in done_events if event.triggered]
            if len(completed) == total:
                return
            if len(completed) < config.speculation_quantile * total:
                continue
            durations = sorted(
                event._value.duration
                for event in completed
                if event.ok and event._value is not None
            )
            if not durations:
                continue
            median = durations[len(durations) // 2]
            threshold = max(config.speculation_multiplier * median, 1e-3)
            for partition, event in enumerate(done_events):
                if event.triggered or partition in speculated:
                    continue
                started = launch_times.get(partition)
                if started is None:
                    continue  # still gated on a pipelined producer
                if self.sim.now - started < threshold:
                    continue
                speculated.add(partition)
                self.context.recovery.speculative_launched += 1
                self.sim.spawn(
                    self._speculative_copy(stage, partition, event),
                    name=f"{stage.name}[{partition}]:speculative",
                )

    def _speculative_copy(self, stage: Stage, partition: int, done: Event):
        """Run a duplicate attempt anywhere; first finisher wins."""
        task = Task(
            stage,
            partition,
            preferred_hosts=[],  # speculation runs wherever a slot frees
            action=self._action if stage.kind is StageKind.RESULT else None,
        )
        task.allowed_hosts = self.allowed_hosts
        try:
            result: TaskResult = yield self.context.task_scheduler.submit(task)
        except FetchFailedError:
            # The duplicate raced a block loss; abandon it quietly — the
            # original attempt drives recovery through its own retry.
            return
        except BaseException as error:  # noqa: BLE001
            if not done.triggered:
                done.fail(error)
            return
        self.metrics.on_task_end(result)
        if not done.triggered:
            self.context.recovery.speculative_wins += 1
            done.succeed(result)

    def _partition_output_exists(self, stage: Stage, partition: int) -> bool:
        """True when this partition's boundary output is already
        registered (from a previous job), so the task can be skipped."""
        context = self.context
        if stage.kind is StageKind.SHUFFLE_MAP:
            dep = stage.outgoing_dep
            assert isinstance(dep, ShuffleDependency)
            return context.map_output_tracker.has_map_output(
                dep.shuffle_id, partition
            )
        if stage.kind is StageKind.TRANSFER_PRODUCER:
            dep = stage.outgoing_dep
            assert isinstance(dep, TransferDependency)
            return (
                context.transfer_tracker.try_get(dep.transfer_id, partition)
                is not None
            )
        return False

    def _stage_already_complete(self, stage: Stage) -> bool:
        context = self.context
        if stage.kind is StageKind.SHUFFLE_MAP:
            dep = stage.outgoing_dep
            assert isinstance(dep, ShuffleDependency)
            return context.map_output_tracker.is_complete(dep.shuffle_id)
        if stage.kind is StageKind.TRANSFER_PRODUCER:
            dep = stage.outgoing_dep
            assert isinstance(dep, TransferDependency)
            return all(
                context.transfer_tracker.try_get(dep.transfer_id, partition)
                is not None
                for partition in range(stage.num_partitions)
            )
        return False

    # ------------------------------------------------------------------
    # Aggregator resolution and placement preferences
    # ------------------------------------------------------------------
    def _resolve_destination(
        self, producer_stage: Stage, reelect: bool = False
    ) -> None:
        """Elect the aggregation datacenter(s) of a transfer boundary.

        With ``reelect=True`` (producer resubmission after a failure)
        the election reruns with health-vetoed datacenters excluded —
        blacklisted ones, quarantined ones (an open breaker inbound),
        and ones with no live executor — so the recovered transfer lands
        somewhere that can actually receive it.  An explicit
        ``destination_datacenter`` pin is never overridden.
        """
        context = self.context
        dep = producer_stage.outgoing_dep
        assert isinstance(dep, TransferDependency)
        previous = getattr(dep, "resolved_destinations", None)
        if previous and not reelect:
            return
        if dep.destination_datacenter is not None:
            dep.resolved_destinations = [dep.destination_datacenter]  # type: ignore[attr-defined]
            return
        exclude = []
        if reelect:
            for datacenter in context.topology.datacenters:
                if (
                    not context.workers_in(datacenter)
                    or context.blacklist.is_datacenter_excluded(datacenter)
                    or context.link_health.datacenter_quarantined(datacenter)
                ):
                    exclude.append(datacenter)
        subset = context.config.shuffle.aggregation_subset_size
        chosen = select_aggregator_datacenters(
            producer_stage, context, subset_size=subset, exclude=exclude
        )
        dep.resolved_destinations = chosen  # type: ignore[attr-defined]
        if reelect and previous and chosen != list(previous):
            context.health.reelections += 1

    def _receiver_preferred_hosts(self, stage: Stage, partition: int) -> List[str]:
        topology = self.context.topology
        hosts: List[str] = []
        for transferred, _producer in stage.transfer_inputs:
            dep = transferred.transfer_dependency
            destinations = getattr(dep, "resolved_destinations", None)
            if not destinations:
                if dep.destination_datacenter is not None:
                    destinations = [dep.destination_datacenter]
                else:  # pragma: no cover - producer resolves first
                    raise SchedulerError(
                        "transfer destination unresolved at receiver launch"
                    )
            chosen = destinations[partition % len(destinations)]
            # §IV-C-2: when the staged partition already lives in the
            # aggregator datacenter the transfer is "completely
            # transparent" — pin the receiver to the staging host so no
            # data moves at all.
            staged = self.context.transfer_tracker.try_get(
                dep.transfer_id, partition
            )
            if (
                staged is not None
                and topology.datacenter_of(staged.host) == chosen
                and staged.host in self.context.executors
            ):
                if staged.host not in hosts:
                    hosts.append(staged.host)
                continue
            for host in topology.hosts_in(chosen):
                if host in self.context.executors and host not in hosts:
                    hosts.append(host)
        return hosts

    def _preferred_hosts(self, stage: Stage, partition: int) -> List[str]:
        if stage.is_receiver_stage:
            receiver_hosts = self._receiver_preferred_hosts(stage, partition)
            if receiver_hosts:
                return receiver_hosts
        return self._walk_preferences(stage.rdd, partition)

    def _walk_preferences(self, rdd: RDD, index: int) -> List[str]:
        """Locality hints: data-source replicas, cache hosts, or the
        hosts holding a significant fraction of shuffle input."""
        context = self.context
        own = [
            host for host in rdd.preferred_locations(index)
            if host in context.executors
        ]
        if own:
            return own
        if rdd.cached:
            location = context.cache.location(rdd.rdd_id, index)
            if location is not None:
                return [location]
        collected: List[str] = []
        fraction = context.config.scheduling.reducer_pref_fraction
        for dep in rdd.dependencies:
            if isinstance(dep, ShuffleDependency):
                for host in context.map_output_tracker.reducer_preferred_hosts(
                    dep.shuffle_id, index, fraction
                ):
                    if host in context.executors and host not in collected:
                        collected.append(host)
            elif isinstance(dep, TransferDependency):
                continue  # receiver placement handled separately
            elif isinstance(dep, NarrowDependency):
                if isinstance(dep, RangeDependency) and not dep.covers(index):
                    continue  # a union branch not owning this partition
                for host in self._walk_preferences(
                    dep.parent, dep.parent_partition(index)
                ):
                    if host not in collected:
                        collected.append(host)
        return collected

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _assemble(self, action: str, results: List[TaskResult]):
        if action == "collect":
            collected: List = []
            for result in results:
                collected.extend(result.records or [])
            return collected
        if action == "count":
            return sum((result.records or [0])[0] for result in results)
        if action == "save":
            return None
        raise SchedulerError(f"unknown action {action!r}")
