"""TaskRuntime: the execution engine running *inside* one task attempt.

Every ``RDD.compute`` generator receives a TaskRuntime and uses it to

* materialise parent partitions (``materialize``), which recurses through
  narrow dependencies, consults the cache, and stops at stage boundaries;
* read input blocks (``read_input_block``): local replicas cost disk
  time, remote replicas a network flow (closest replica wins);
* read shuffle input (``shuffle_read``) and staged transfer partitions
  (``transfer_read``): both delegate to the context's
  :class:`~repro.shuffle.service.ShuffleBackend`, so how the bytes move
  (per-shard fetch, push/aggregate, per-datacenter pre-merge, ...) is
  the active backend's decision — the runtime and RDD layers are
  strategy-agnostic;
* charge operator CPU/sort time from logical byte volumes.
"""

from __future__ import annotations

from typing import Any, List, TYPE_CHECKING

from repro.errors import RDDError
from repro.rdd.dependencies import ShuffleDependency, TransferDependency
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import view

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext
    from repro.scheduler.task import Task


class TaskRuntime:
    """Per-attempt execution context bound to one host."""

    def __init__(self, context: ClusterContext, task: Task, host: str) -> None:
        self.context = context
        self.task = task
        self.host = host
        self.sim = context.sim
        # Sizing in logical bytes: the estimator's two walks, bound once.
        # A cached dataset's Partition answers from its own totals.
        self.estimate = context.estimator.estimate
        self.sized = context.estimator.estimate_walked
        # Multiplies CPU charges; >1 models a straggling attempt.
        self.slowdown = 1.0
        # Metrics accumulated over this attempt.
        self.shuffle_bytes_fetched = 0.0
        self.bytes_read_local = 0.0
        self.bytes_transferred_in = 0.0

    @property
    def tenant(self) -> str:
        """The owning tenant of this attempt's job ("" single-job)."""
        return self.task.stage.tenant or ""

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def materialize(self, rdd: RDD, index: int):
        """Produce the records of ``rdd`` partition ``index`` (generator)."""
        cache = self.context.cache
        if rdd.cached:
            entry = cache.lookup(rdd.rdd_id, index)
            if entry is not None:
                if entry.host != self.host:
                    yield self.context.fabric.transfer(
                        entry.host, self.host, entry.size_bytes, tag="cache",
                        tenant=self.tenant,
                    )
                    self.bytes_transferred_in += entry.size_bytes
                return view(entry.records)
        records = yield from rdd.compute(index, self)
        if rdd.cached:
            size = self.estimate(records)
            cache.put(rdd.rdd_id, index, self.host, view(records), size)
        return records

    # ------------------------------------------------------------------
    # Data sources
    # ------------------------------------------------------------------
    def read_input_block(self, block_id: str):
        """Read a DFS block, preferring local then same-DC replicas."""
        topology = self.context.topology
        block = self.context.dfs.read_block(block_id)
        locations = block.hosts
        if self.host in locations:
            yield self.sim.timeout(
                self.context.config.disk.read_time(block.size_bytes)
            )
            self.bytes_read_local += block.size_bytes
            return view(block.records)
        my_dc = topology.datacenter_of(self.host)
        same_dc = [
            host for host in locations
            if topology.datacenter_of(host) == my_dc
        ]
        self.bytes_transferred_in += block.size_bytes
        if self.context.config.health.flow_retry_enabled:
            # Replica-rotating retry: a deadline miss re-issues the read
            # from the next replica (same-DC replicas first), so a
            # degraded path is sidestepped whenever dfs_replication left
            # a copy elsewhere.
            from repro.failures.health import transfer_with_retry

            sources = same_dc + [
                host for host in locations if host not in same_dc
            ]
            yield from transfer_with_retry(
                self.context, sources, self.host, block.size_bytes,
                tag="input", tenant=self.tenant,
            )
        else:
            source = same_dc[0] if same_dc else locations[0]
            yield self.context.fabric.transfer(
                source, self.host, block.size_bytes, tag="input",
                tenant=self.tenant,
            )
        return view(block.records)

    def read_driver_data(self, records: List[Any]):
        """Ship parallelized driver data to this task's host."""
        size = self.estimate(records)
        yield self.context.fabric.transfer(
            self.context.driver_host, self.host, size, tag="driver",
            tenant=self.tenant,
        )
        return list(records)

    def shuffle_read(self, dep: ShuffleDependency, reduce_index: int):
        """Read this reducer's input through the active shuffle backend."""
        records = yield from self.context.shuffle_service.shuffle_read(
            self, dep, reduce_index
        )
        return records

    def transfer_read(self, dep: TransferDependency, index: int):
        """Pull a staged partition from its origin host (receiver task)."""
        records = yield from self.context.shuffle_service.transfer_read(
            self, dep, index
        )
        return records

    # ------------------------------------------------------------------
    # Time charging
    # ------------------------------------------------------------------
    def charge_operator(self, rdd: RDD, input_records: List[Any]):
        """CPU time for one narrow/aggregation operator (generator)."""
        seconds = self.context.config.cost.compute_time(self.sized(input_records))
        seconds *= self.slowdown
        if seconds > 0:
            yield self.sim.timeout(seconds)

    def charge_combine(self, rdd: RDD, input_records: List[Any]):
        """Cheaper per-byte charge for in-memory merge/combine passes."""
        seconds = (
            self.context.config.cost.combine_time(self.sized(input_records))
            * self.slowdown
        )
        if seconds > 0:
            yield self.sim.timeout(seconds)

    def charge_shuffle_write(self, logical_bytes: float):
        seconds = (
            self.context.config.cost.shuffle_write_time(logical_bytes)
            * self.slowdown
        )
        if seconds > 0:
            yield self.sim.timeout(seconds)

    def charge_sort(self, rdd: RDD, input_records: List[Any]):
        seconds = (
            self.context.config.cost.sort_time(self.sized(input_records))
            * self.slowdown
        )
        if seconds > 0:
            yield self.sim.timeout(seconds)

    def charge_disk_write(self, logical_bytes: float):
        seconds = self.context.config.disk.write_time(logical_bytes)
        if seconds > 0:
            yield self.sim.timeout(seconds)

    # ------------------------------------------------------------------
    def ensure_pairs(self, records: List[Any], operation: str) -> None:
        """Shuffle operations need (key, value) tuples; fail loudly."""
        for record in records[:1]:
            if not (isinstance(record, tuple) and len(record) == 2):
                raise RDDError(
                    f"{operation} requires (key, value) records, got "
                    f"{type(record).__name__}"
                )
