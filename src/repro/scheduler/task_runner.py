"""TaskRunner: the body of a task attempt, with retries and failures.

Drives one task end to end on a chosen host:

1. launch overhead;
2. materialise the stage's root partition via a fresh
   :class:`~repro.scheduler.task_runtime.TaskRuntime` (this performs all
   reads, transfers, and CPU charges);
3. (optional) injected failure for shuffle-reading tasks — the attempt's
   work is lost and step 2 repeats, re-fetching shuffle input exactly as
   a relaunched Spark reducer would (paper Fig. 2);
4. finalise: sharded shuffle write, transfer staging, or the job action.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import TaskFailedError
from repro.rdd.aggregator import Aggregator
from repro.rdd.dependencies import ShuffleDependency, TransferDependency
from repro.rdd.shuffled import shard_records
from repro.rdd.size_estimator import Partition, view
from repro.scheduler.stage import StageKind
from repro.scheduler.task import Task, TaskResult
from repro.scheduler.task_runtime import TaskRuntime
from repro.shuffle.map_output_tracker import ShuffleShard

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext

# Simulated seconds between a slot being granted and the task starting.
TASK_LAUNCH_OVERHEAD = 0.05
# Attempts one task gets before the job fails (Spark's
# ``spark.task.maxFailures`` is 4).
MAX_TASK_ATTEMPTS = 4


class TaskRunner:
    """Executes tasks for one cluster context."""

    def __init__(self, context: ClusterContext) -> None:
        self.context = context

    # The signature TaskScheduler expects: a generator -> TaskResult.
    def run(self, task: Task, host: str):
        context = self.context
        sim = context.sim
        started = sim.now
        yield sim.timeout(TASK_LAUNCH_OVERHEAD)

        refetched = 0.0
        runtime = None
        records: List = []
        while True:
            task.attempts += 1
            if task.attempts > MAX_TASK_ATTEMPTS:
                raise TaskFailedError(task.task_id, task.attempts - 1)
            runtime = TaskRuntime(context, task, host)
            runtime.slowdown = context.failure_injector.straggler_slowdown(task)
            records = yield from runtime.materialize(
                task.stage.rdd, task.partition
            )
            if task.attempts > 1:
                refetched += runtime.shuffle_bytes_fetched
            if task.stage.reads_shuffle and context.failure_injector.should_fail(task):
                context.metrics.on_task_attempt_failed(task, host, sim.now)
                context.blacklist.note_task_failure(host, task.stage.stage_id)
                # The next attempt re-fetches shuffle input; those flows
                # are recovery traffic (paper Fig. 2).
                task.recovery = True
                continue
            break

        output_bytes = 0.0
        result_records = None
        if task.stage.kind is StageKind.SHUFFLE_MAP:
            output_bytes = yield from self._shuffle_write(
                runtime, task, host, records
            )
        elif task.stage.kind is StageKind.TRANSFER_PRODUCER:
            output_bytes = yield from self._stage_transfer_partition(
                runtime, task, host, records
            )
        else:
            result_records = yield from self._apply_action(
                runtime, task, host, records
            )

        return TaskResult(
            task=task,
            host=host,
            started_at=started,
            finished_at=sim.now,
            attempts=task.attempts,
            records=result_records,
            shuffle_bytes_fetched=runtime.shuffle_bytes_fetched,
            shuffle_bytes_refetched=refetched,
            output_bytes=output_bytes,
        )

    # ------------------------------------------------------------------
    # Finalisers
    # ------------------------------------------------------------------
    def _shuffle_write(self, runtime: TaskRuntime, task: Task, host: str, records):
        """Shard (and maybe combine) records, write them, register output."""
        stage = task.stage
        dep = stage.outgoing_dep
        assert isinstance(dep, ShuffleDependency)
        runtime.ensure_pairs(records, "shuffle write")
        aggregator = dep.aggregator if dep.map_side_combine else None
        # Combining after a pre-combined transfer (§IV-C-3) only merges
        # the combiners that collided across the partition.
        split = (records, dep.partitioner, aggregator, stage.combine_done)
        if type(records) is Partition:
            origin = records.origin
            if (
                stage.combine_done
                and origin is not None
                and origin[:2] == (Aggregator.combine_values, aggregator)
            ):
                # Combining a partition and then splitting it gives the
                # shards that splitting it and then combining each does:
                # a key's values meet in the same order either way.  Ask
                # for those, so this write and all that follows share the
                # fetch schemes' partitions.
                split = (origin[2], dep.partitioner, aggregator, False)
            shard_lists = records.memo.derive(shard_records, *split, nested=True)
        else:
            shard_lists = shard_records(*split)
        if aggregator is not None:
            yield from runtime.charge_combine(stage.rdd, records)
        estimate = runtime.estimate
        shards = [
            ShuffleShard(records=shard, size_bytes=estimate(shard))
            for shard in shard_lists
        ]
        total_bytes = sum(shard.size_bytes for shard in shards)
        yield from runtime.charge_shuffle_write(total_bytes)
        yield from runtime.charge_disk_write(total_bytes)
        self.context.shuffle_service.register_map_output(
            dep.shuffle_id, task.partition, host, shards
        )
        return total_bytes

    def _stage_transfer_partition(
        self, runtime: TaskRuntime, task: Task, host: str, records
    ):
        """Stage the whole partition at this host for a receiver pull.

        Applies the pre-transfer combine when requested; skips the disk
        write entirely — pushed data leaves from memory (§IV-B:
        "unnecessary disk I/O is avoided").
        """
        stage = task.stage
        dep = stage.outgoing_dep
        assert isinstance(dep, TransferDependency)
        if dep.pre_combine is not None:
            runtime.ensure_pairs(records, "pre-transfer combine")
            yield from runtime.charge_combine(stage.rdd, records)
            if type(records) is Partition:
                records = records.memo.derive(
                    Aggregator.combine_values, dep.pre_combine, records
                )
            else:
                records = dep.pre_combine.combine_values(records)
        size = runtime.estimate(records)
        self.context.shuffle_service.stage_transfer_partition(
            dep.transfer_id, task.partition, host, view(records), size
        )
        return size

    def _apply_action(self, runtime: TaskRuntime, task: Task, host: str, records):
        """Execute the result-stage action for this partition."""
        context = self.context
        action = task.action or "collect"
        if action == "collect":
            size = runtime.estimate(records)
            yield context.fabric.transfer(
                host, context.driver_host, size, tag="result",
                tenant=runtime.tenant,
            )
            return view(records)
        if action == "save":
            size = runtime.estimate(records)
            yield from runtime.charge_disk_write(size)
            path = task.stage.save_path  # type: ignore[attr-defined]
            context.dfs.write_file(
                f"{path}/part-{task.partition:05d}",
                [records],
                [size],
                placement_hosts=[host],
            )
            return [size]
        raise TaskFailedError(task.task_id, task.attempts, f"unknown action {action!r}")
