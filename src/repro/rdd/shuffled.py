"""Shuffle-consuming RDDs: the reduce side of a shuffle boundary.

:class:`ShuffledRDD` covers groupByKey / reduceByKey / sortByKey /
partitionBy, differing only in aggregator and ordering.
:class:`CoGroupedRDD` consumes two shuffles at once and underlies
``join``/``cogroup``.

Both obtain their input through ``runtime.shuffle_read``, which routes
to the context's :class:`~repro.shuffle.service.ShuffleBackend` — the
active backend (fetch, push/aggregate, pre-merge, ...) performs the
actual data movement.  The RDD layer is agnostic to the mechanism,
exactly as in the paper's design where ``transferTo`` changes *where
shuffle input lives*, not what reducers do.

What a shuffle does to the *records* is the module-level pure steps
below (:func:`shard_records` on the map side; :func:`gather_records`,
:func:`sort_records`, :func:`cogroup_records` and the aggregator's
``combine_*`` on the reduce side).  A step never changes its input, and
over the :class:`~repro.rdd.size_estimator.Partition` objects of a cached
dataset it runs once per dataset (:mod:`repro.rdd.memo`).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.rdd.aggregator import Aggregator
from repro.rdd.dependencies import ShuffleDependency
from repro.rdd.partitioner import Partitioner
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import Partition, view


def shard_records(
    records: List[Any],
    partitioner: Partitioner,
    aggregator: Optional[Aggregator],
    combined: bool,
) -> List[List[Any]]:
    """Split (key, value) records into one list per reduce partition.

    With an ``aggregator`` (map-side combine) every shard is folded:
    values into combiners, or — when the records were already
    ``combined`` before a transfer (§IV-C-3) — only the combiners that
    collided across the partition.
    """
    partition = partitioner.partition
    shards: List[List[Any]] = [[] for _ in range(partitioner.num_partitions)]
    for record in records:
        shards[partition(record[0])].append(record)
    if aggregator is None:
        return shards
    fold = aggregator.combine_combiners if combined else aggregator.combine_values
    return [fold(shard) for shard in shards]


def gather_records(*shards: Sequence[Any]) -> List[Any]:
    """A reducer's input: its shard of every map output, in map order."""
    return list(chain.from_iterable(shards))


def gather(shards: List[Sequence[Any]]) -> List[Any]:
    """:func:`gather_records`, once per dataset when every shard is a
    cached dataset's Partition."""
    if (
        shards
        and type(shards[0]) is Partition  # the plain path stops here
        and all(type(shard) is Partition for shard in shards)
    ):
        return shards[0].memo.derive(gather_records, *shards)
    return gather_records(*shards)


def sort_records(records: List[Any], ascending: bool) -> List[Any]:
    return sorted(records, key=itemgetter(0), reverse=not ascending)


def cogroup_records(
    left_records: List[Any], right_records: List[Any]
) -> List[Tuple[Any, Tuple[List[Any], List[Any]]]]:
    groups: Dict[Any, Tuple[List[Any], List[Any]]] = {}
    for key, value in left_records:
        groups.setdefault(key, ([], []))[0].append(value)
    for key, value in right_records:
        groups.setdefault(key, ([], []))[1].append(value)
    return list(groups.items())


class ShuffledRDD(RDD):
    """The output of a single-parent shuffle."""

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator] = None,
        map_side_combine: bool = False,
        key_ordering: bool = False,
        ascending: bool = True,
        name: str = "shuffled",
    ) -> None:
        dependency = ShuffleDependency(
            parent,
            partitioner,
            aggregator=aggregator,
            map_side_combine=map_side_combine,
            key_ordering=key_ordering,
        )
        super().__init__(parent.context, [dependency], name=name)
        self.shuffle_dependency = dependency
        self.partitioner = partitioner
        self.ascending = ascending

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def compute(self, index: int, runtime):
        dep = self.shuffle_dependency
        records = yield from runtime.shuffle_read(dep, index)
        aggregator = dep.aggregator
        if aggregator is not None:
            # Shards arrive pre-combined after a map-side combine: merge
            # combiners across maps.  Otherwise fold raw values.
            fold = (
                Aggregator.combine_combiners
                if dep.map_side_combine
                else Aggregator.combine_values
            )
            yield from runtime.charge_combine(self, records)
            if type(records) is Partition:
                return records.memo.derive(fold, aggregator, records)
            return fold(aggregator, records)
        if dep.key_ordering:
            yield from runtime.charge_sort(self, records)
            if type(records) is Partition:
                return records.memo.derive(sort_records, records, self.ascending)
            return sort_records(records, self.ascending)
        yield from runtime.charge_combine(self, records)
        return view(records)


class CoGroupedRDD(RDD):
    """Groups two keyed RDDs by key: (k, ([left values], [right values]))."""

    def __init__(
        self, left: RDD, right: RDD, partitioner: Partitioner
    ) -> None:
        left_dep = ShuffleDependency(left, partitioner)
        right_dep = ShuffleDependency(right, partitioner)
        super().__init__(left.context, [left_dep, right_dep], name="cogroup")
        self.left_dependency = left_dep
        self.right_dependency = right_dep
        self.partitioner = partitioner

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def compute(self, index: int, runtime):
        left_records = yield from runtime.shuffle_read(self.left_dependency, index)
        right_records = yield from runtime.shuffle_read(self.right_dependency, index)
        yield from runtime.charge_combine(self, left_records)
        yield from runtime.charge_combine(self, right_records)
        if type(left_records) is Partition and type(right_records) is Partition:
            return left_records.memo.derive(
                cogroup_records, left_records, right_records
            )
        return cogroup_records(left_records, right_records)
