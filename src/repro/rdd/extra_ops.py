"""Additional RDD operations beyond the paper's minimum.

These mirror the corresponding Spark operations and are implemented in
terms of the primitive transformations, so they inherit the shuffle
mechanism (fetch or push) transparently.  They are attached to
:class:`~repro.rdd.rdd.RDD` at import time by :func:`install_extra_ops`
(called from ``repro.rdd.rdd``), keeping the core class focused on the
paper's machinery.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import PartitionError, RDDError
from repro.rdd.aggregator import Aggregator
from repro.rdd.partitioner import HashPartitioner
from repro.rdd.rdd import RDD


def _coalesce(self: RDD, num_partitions: int) -> RDD:
    """Reduce the partition count without a shuffle.

    Partition ``i`` of the result concatenates every source partition
    ``j`` with ``j % num_partitions == i`` (a narrow many-to-one
    dependency approximated through a union-of-slices pipeline).
    """
    if num_partitions < 1:
        raise PartitionError("coalesce requires num_partitions >= 1")
    if num_partitions >= self.num_partitions:
        return self

    return _CoalescedRDD(self, num_partitions)


class _CoalescedRDD(RDD):
    """Narrow many-to-one repartitioning."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        from repro.rdd.dependencies import NarrowDependency

        super().__init__(parent.context, [NarrowDependency(parent)],
                         name="coalesce")
        self._parent = parent
        self._num_partitions = num_partitions

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def _parent_indices(self, index: int) -> List[int]:
        return [
            j for j in range(self._parent.num_partitions)
            if j % self._num_partitions == index
        ]

    def compute(self, index: int, runtime):
        records: List[Any] = []
        for parent_index in self._parent_indices(index):
            chunk = yield from runtime.materialize(self._parent, parent_index)
            records.extend(chunk)
        return records

    def preferred_locations(self, index: int) -> List[str]:
        for parent_index in self._parent_indices(index):
            hints = self._parent.preferred_locations(parent_index)
            if hints:
                return hints
        return []


def _sample(self: RDD, fraction: float, seed: int = 0) -> RDD:
    """Bernoulli sampling of records (without replacement)."""
    if not 0 <= fraction <= 1:
        raise RDDError("sample fraction must be in [0, 1]")
    from repro.rdd.partitioner import stable_hash

    threshold = int(fraction * (2 ** 31))

    def keep(record) -> bool:
        return stable_hash((seed, repr(record))) < threshold

    return self.filter(keep)


def _aggregate_by_key(
    self: RDD,
    zero_factory: Callable[[], Any],
    seq_op: Callable[[Any, Any], Any],
    comb_op: Callable[[Any, Any], Any],
    num_partitions: Optional[int] = None,
) -> RDD:
    """Spark's aggregateByKey: per-key fold with a neutral element."""
    from repro.rdd.shuffled import ShuffledRDD

    aggregator = Aggregator(
        create_combiner=lambda value: seq_op(zero_factory(), value),
        merge_value=seq_op,
        merge_combiners=comb_op,
    )
    partitioner = HashPartitioner(
        num_partitions or self.context.default_parallelism
    )
    return ShuffledRDD(
        self, partitioner, aggregator=aggregator, map_side_combine=True,
        name="aggregateByKey",
    )


def _combine_by_key(
    self: RDD,
    create_combiner: Callable[[Any], Any],
    merge_value: Callable[[Any, Any], Any],
    merge_combiners: Callable[[Any, Any], Any],
    num_partitions: Optional[int] = None,
) -> RDD:
    """The general combine-by-key primitive (Spark's combineByKey)."""
    from repro.rdd.shuffled import ShuffledRDD

    partitioner = HashPartitioner(
        num_partitions or self.context.default_parallelism
    )
    return ShuffledRDD(
        self,
        partitioner,
        aggregator=Aggregator(create_combiner, merge_value, merge_combiners),
        map_side_combine=True,
        name="combineByKey",
    )


def _count_by_key(self: RDD) -> dict:
    """Action: key -> number of records with that key."""
    counted = self.map(
        lambda kv: (kv[0], 1), name="countByKey"
    ).reduce_by_key(lambda a, b: a + b)
    return dict(counted.collect())


def _reduce(self: RDD, func: Callable[[Any, Any], Any]) -> Any:
    """Action: fold all records into one value at the driver."""
    partials = self.map_partitions(
        lambda records: [_fold(records, func)] if records else [],
        name="reduce",
    ).collect()
    if not partials:
        raise RDDError("reduce of an empty RDD")
    return _fold(partials, func)


def _fold(records: List[Any], func: Callable[[Any, Any], Any]) -> Any:
    accumulator = records[0]
    for record in records[1:]:
        accumulator = func(accumulator, record)
    return accumulator


def _take(self: RDD, count: int) -> List[Any]:
    """Action: the first ``count`` records in partition order.

    Materialises the whole dataset (no incremental job submission), so
    use on small results only — matching this engine's collect-based
    action model.
    """
    if count < 0:
        raise RDDError("take requires count >= 0")
    return self.collect()[:count]


def _first(self: RDD) -> Any:
    records = _take(self, 1)
    if not records:
        raise RDDError("first() on an empty RDD")
    return records[0]


def _sort_by(
    self: RDD,
    key_func: Callable[[Any], Any],
    sample_keys,
    num_partitions: Optional[int] = None,
    ascending: bool = True,
) -> RDD:
    """Globally sort records by ``key_func`` (sortBy)."""
    keyed = self.map(lambda record: (key_func(record), record), name="keyBy")
    ordered = keyed.sort_by_key(
        sample_keys=[key_func(k) if not _is_plain_key(k) else k
                     for k in sample_keys],
        num_partitions=num_partitions,
        ascending=ascending,
    )
    return ordered.values()


def _is_plain_key(candidate) -> bool:
    return not callable(candidate)


def _zip_with_index(self: RDD) -> RDD:
    """(record, global index) pairs; requires a counting pre-pass.

    Like Spark, this runs one job to learn partition sizes, then tags
    records in a second pass.
    """
    sizes = self.map_partitions(
        lambda records: [len(records)], name="countPartitions"
    ).collect()
    offsets = [0]
    for size in sizes[:-1]:
        offsets.append(offsets[-1] + size)

    class _Zipped(RDD):
        def __init__(inner, parent: RDD) -> None:
            from repro.rdd.dependencies import NarrowDependency

            super().__init__(
                parent.context, [NarrowDependency(parent)],
                name="zipWithIndex",
            )
            inner._parent = parent

        @property
        def num_partitions(inner) -> int:
            return inner._parent.num_partitions

        def compute(inner, index: int, runtime):
            records = yield from runtime.materialize(inner._parent, index)
            base = offsets[index]
            return [
                (record, base + position)
                for position, record in enumerate(records)
            ]

        def preferred_locations(inner, index: int):
            return inner._parent.preferred_locations(index)

    return _Zipped(self)


def install_extra_ops() -> None:
    """Attach the extended operations to the RDD class (idempotent)."""
    RDD.coalesce = _coalesce
    RDD.sample = _sample
    RDD.aggregate_by_key = _aggregate_by_key
    RDD.combine_by_key = _combine_by_key
    RDD.count_by_key = _count_by_key
    RDD.reduce = _reduce
    RDD.take = _take
    RDD.first = _first
    RDD.sort_by = _sort_by
    RDD.zip_with_index = _zip_with_index
