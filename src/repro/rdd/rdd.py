"""The RDD base class, input RDDs, and narrow transformations.

An RDD here is a lazy *description*; nothing computes until an action
(:meth:`RDD.collect`, :meth:`RDD.save_as_file`) hands
the lineage to the DAG scheduler.  Each RDD implements

* ``num_partitions`` — how many partitions it has,
* ``compute(index, runtime)`` — a *generator* producing the records of
  one partition.  It may yield simulation events (CPU charges, reads) and
  must ``return`` the record list.  Parent partitions are obtained through
  ``runtime.materialize(...)``, which stops at stage boundaries (shuffle
  and transfer dependencies) and performs the corresponding data movement,
* ``preferred_locations(index)`` — host-level locality hints used by the
  task scheduler (non-empty only for data sources).

User functions passed to ``map``/``flat_map``/... are ordinary Python
callables over records; simulated time is charged per operator from the
logical byte volume, so the real Python cost of tiny scaled-down datasets
is irrelevant to the measured results.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
)

from repro.errors import PartitionError
from repro.rdd.aggregator import Aggregator
from repro.rdd.dependencies import Dependency, NarrowDependency
from repro.rdd.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.rdd.size_estimator import Partition

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext

_rdd_ids = itertools.count()


# The narrow ops as pure steps, ``step(records, func) -> new list``:
# module-level, so the same program built on another context names the
# same step (repro.rdd.memo keys on it).  None may change ``records``.
def map_records(records: List[Any], func: Callable[[Any], Any]) -> List[Any]:
    return list(map(func, records))


def map_value_records(records: List[Any], func: Callable[[Any], Any]) -> List[Any]:
    return [(kv[0], func(kv[1])) for kv in records]


def flat_map_records(
    records: List[Any], func: Callable[[Any], Iterable[Any]]
) -> List[Any]:
    return list(itertools.chain.from_iterable(map(func, records)))


class RDD:
    """A lazy, partitioned, lineage-tracked dataset."""

    def __init__(
        self,
        context: ClusterContext,
        dependencies: Sequence[Dependency],
        name: str = "",
    ) -> None:
        self.rdd_id = next(_rdd_ids)
        self.context = context
        self.dependencies: List[Dependency] = list(dependencies)
        self.name = name or type(self).__name__
        self.cached = False
        # Set for outputs of shuffles with a known partitioning.
        self.partitioner: Optional[Partitioner] = None

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, index: int, runtime):  # generator
        raise NotImplementedError

    def preferred_locations(self, index: int) -> List[str]:
        """Host-level locality hints; empty means 'anywhere'."""
        return []

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------
    def map(self, func: Callable[[Any], Any], name: str = "map") -> MappedRDD:
        """Apply ``func`` to every record."""
        return MappedRDD(self, func, name=name)

    def map_values(self, func: Callable[[Any], Any]) -> MappedRDD:
        """Apply ``func`` to the value of every (key, value) record."""
        return MappedRDD(self, func, name="mapValues", step=map_value_records)

    def flat_map(
        self, func: Callable[[Any], Iterable[Any]], name: str = "flatMap"
    ) -> FlatMappedRDD:
        """Apply ``func`` and flatten the resulting iterables."""
        return FlatMappedRDD(self, func, name=name)

    # ------------------------------------------------------------------
    # Shuffle transformations (defined in shuffled.py, bound here)
    # ------------------------------------------------------------------
    def group_by_key(self, num_partitions: Optional[int] = None) -> RDD:
        """Group (k, v) records into (k, [values]) via a shuffle."""
        from repro.rdd.shuffled import ShuffledRDD

        partitioner = HashPartitioner(
            num_partitions or self.context.default_parallelism
        )
        return ShuffledRDD(
            self,
            partitioner,
            aggregator=Aggregator.group_by_key(),
            map_side_combine=False,
            name="groupByKey",
        )

    def reduce_by_key(
        self,
        func: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> RDD:
        """Merge values per key with ``func``; combines map-side."""
        from repro.rdd.shuffled import ShuffledRDD

        partitioner = HashPartitioner(
            num_partitions or self.context.default_parallelism
        )
        return ShuffledRDD(
            self,
            partitioner,
            aggregator=Aggregator.from_reduce_function(func),
            map_side_combine=True,
            name="reduceByKey",
        )

    def sort_by_key(
        self,
        sample_keys: Sequence[Any],
        num_partitions: Optional[int] = None,
        ascending: bool = True,
    ) -> RDD:
        """Globally sort (k, v) records with a range partitioner.

        ``sample_keys`` stands in for Spark's sampling pre-pass: callers
        provide representative keys (workload generators know their key
        distribution), from which balanced range boundaries are drawn.
        """
        from repro.rdd.shuffled import ShuffledRDD

        partitioner = RangePartitioner(
            num_partitions or self.context.default_parallelism, sample_keys
        )
        return ShuffledRDD(
            self,
            partitioner,
            aggregator=None,
            map_side_combine=False,
            key_ordering=True,
            ascending=ascending,
            name="sortByKey",
        )

    def cogroup(
        self, other: RDD, num_partitions: Optional[int] = None
    ) -> RDD:
        """Group both RDDs' values per key: (k, ([left vs], [right vs]))."""
        from repro.rdd.shuffled import CoGroupedRDD

        partitioner = HashPartitioner(
            num_partitions or self.context.default_parallelism
        )
        return CoGroupedRDD(self, other, partitioner)

    # ------------------------------------------------------------------
    # The paper's transformation
    # ------------------------------------------------------------------
    def transfer_to(
        self,
        destination_datacenter: Optional[str] = None,
        pre_combine: Optional[Aggregator] = None,
    ) -> RDD:
        """Proactively push this dataset into an aggregator datacenter.

        The core API of the reproduced paper (§IV-B).  Returns a
        :class:`~repro.rdd.transferred.TransferredRDD` whose partitions are
        produced by *receiver tasks* scheduled inside
        ``destination_datacenter`` (all worker hosts there are offered as
        ``preferred_locations``; the task scheduler keeps host-level load
        balance).  When ``destination_datacenter`` is omitted, the DAG
        scheduler selects the datacenter storing the largest fraction of
        this RDD's input, per §IV-D of the paper.

        Receiver tasks pipeline with the producing stage: each starts as
        soon as its parent partition is available, without waiting for the
        whole stage — this is what smooths WAN traffic over time (Fig. 1).
        """
        from repro.rdd.transferred import TransferredRDD

        return TransferredRDD(
            self,
            destination_datacenter=destination_datacenter,
            pre_combine=pre_combine,
        )

    def cache(self) -> RDD:
        """Persist computed partitions at the hosts that produced them."""
        self.cached = True
        return self

    # ------------------------------------------------------------------
    # Actions (run the job on the simulator via the context)
    # ------------------------------------------------------------------
    def collect(self) -> List[Any]:
        """Materialise every partition and return records in order."""
        return self.context.run_collect(self)

    def save_as_file(self, path: str) -> None:
        """Write each output partition to the DFS at the task's host."""
        self.context.run_save(self, path)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def lineage(self) -> List[RDD]:
        """All ancestor RDDs (including self), deduplicated, parents first
        (depth-first post-order, dependencies in order)."""
        seen = {self.rdd_id}
        order: List[RDD] = []
        stack = [(self, iter(self.dependencies))]
        while stack:
            rdd, deps = stack[-1]
            for dep in deps:
                parent = dep.parent
                if parent.rdd_id not in seen:
                    seen.add(parent.rdd_id)
                    stack.append((parent, iter(parent.dependencies)))
                    break
            else:
                stack.pop()
                order.append(rdd)
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} id={self.rdd_id} partitions={self.num_partitions}>"


class HadoopRDD(RDD):
    """An input RDD backed by one DFS file: one partition per block."""

    def __init__(self, context: ClusterContext, path: str) -> None:
        super().__init__(context, dependencies=[], name=f"hadoop[{path}]")
        self.path = path
        self._block_ids = context.dfs.file_blocks(path)

    @property
    def num_partitions(self) -> int:
        return len(self._block_ids)

    def block_id(self, index: int) -> str:
        try:
            return self._block_ids[index]
        except IndexError:
            raise PartitionError(
                f"{self.name}: partition {index} out of range"
            ) from None

    def compute(self, index: int, runtime):
        records = yield from runtime.read_input_block(self.block_id(index))
        return records

    def preferred_locations(self, index: int) -> List[str]:
        return self.context.dfs.block_locations(self.block_id(index))


class ParallelizedRDD(RDD):
    """Driver-side data split into partitions (context.parallelize)."""

    def __init__(
        self, context: ClusterContext, records: Sequence[Any], num_slices: int
    ) -> None:
        super().__init__(context, dependencies=[], name="parallelize")
        if num_slices < 1:
            raise PartitionError("num_slices must be >= 1")
        self._slices: List[List[Any]] = [[] for _ in range(num_slices)]
        for position, record in enumerate(records):
            self._slices[position % num_slices].append(record)

    @property
    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, index: int, runtime):
        # Driver data is shipped to the task's host when first used.
        records = yield from runtime.read_driver_data(self._slices[index])
        return records


class _NarrowRDD(RDD):
    """One parent partition in, one out: ``step(records, func)``."""

    def __init__(self, parent: RDD, step, func, name: str) -> None:
        super().__init__(parent.context, [NarrowDependency(parent)], name=name)
        self.step = step
        self.func = func

    @property
    def num_partitions(self) -> int:
        return self.dependencies[0].parent.num_partitions

    def compute(self, index: int, runtime):
        parent = self.dependencies[0].parent
        records = yield from runtime.materialize(parent, index)
        yield from runtime.charge_operator(self, records)
        if type(records) is Partition:
            return records.memo.derive(self.step, records, self.func)
        return self.step(records, self.func)


class MappedRDD(_NarrowRDD):
    """One-to-one record transformation."""

    def __init__(
        self,
        parent: RDD,
        func: Callable[[Any], Any],
        name: str = "map",
        step=map_records,
    ) -> None:
        super().__init__(parent, step, func, name)
        # mapValues-style ops preserve the parent's partitioning.
        if name == "mapValues":
            self.partitioner = parent.partitioner


class FlatMappedRDD(_NarrowRDD):
    """One-to-many record transformation."""

    def __init__(
        self, parent: RDD, func: Callable[[Any], Iterable[Any]], name: str = "flatMap"
    ) -> None:
        super().__init__(parent, flat_map_records, func, name)
