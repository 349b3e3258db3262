"""Dependencies between RDDs: the edges of the lineage DAG.

Three families matter here:

* :class:`NarrowDependency` — partition *i* of the child reads partition
  *i* of the parent; parent and child live in the same stage and are
  pipelined inside one task (exactly Spark's behaviour).
* :class:`ShuffleDependency` — an all-to-all boundary.  The parent stage
  writes sharded map output; the child stage reads it through the shuffle
  machinery (fetch- or push-based depending on configuration).
* :class:`TransferDependency` — the paper's contribution.  Also a stage
  boundary, but one-to-one: partition *i* of the child
  (:class:`~repro.rdd.transferred.TransferredRDD`) is produced by a
  *receiver task* that pulls partition *i* of the parent across the
  network.  Unlike a shuffle there is no barrier: each receiver task
  becomes runnable the moment its parent task finishes, which is what
  pipelines WAN transfers with map execution (Fig. 1 of the paper).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional

from repro.rdd.aggregator import Aggregator
from repro.rdd.partitioner import Partitioner

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdd.rdd import RDD

_shuffle_ids = itertools.count()
_transfer_ids = itertools.count()


class Dependency:
    """Base class: an edge from a child RDD to one parent RDD."""

    def __init__(self, parent: RDD) -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """Partition i of the child depends on partition i of the parent."""


class ShuffleDependency(Dependency):
    """An all-to-all repartitioning edge.

    Attributes:
        partitioner: key -> reduce partition mapping.
        aggregator: optional combine semantics.
        map_side_combine: if True (and an aggregator is present) map tasks
            combine each shard before writing shuffle output.
        key_ordering: if True the reduce side sorts records by key
            (sortByKey); sorting cost is charged by the cost model.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator] = None,
        map_side_combine: bool = False,
        key_ordering: bool = False,
    ) -> None:
        super().__init__(parent)
        if map_side_combine and aggregator is None:
            raise ValueError("map_side_combine requires an aggregator")
        self.shuffle_id = next(_shuffle_ids)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine
        self.key_ordering = key_ordering


class TransferDependency(Dependency):
    """A one-to-one *data movement* edge (the transferTo boundary).

    Attributes:
        destination_datacenter: the aggregator datacenter name, or None
            for "decide automatically at stage submission" (§IV-D: the
            datacenter storing the largest amount of map input).
        pre_combine: aggregator applied to the parent partition *before*
            the transfer (the §IV-C-3 map-side-combine-before-transfer
            optimisation); None disables it.
        resolved_destinations: the aggregator datacenter(s) elected when
            the producer stage is submitted (re-elected on resubmission);
            empty until then.
    """

    def __init__(
        self,
        parent: RDD,
        destination_datacenter: Optional[str] = None,
        pre_combine: Optional[Aggregator] = None,
    ) -> None:
        super().__init__(parent)
        self.transfer_id = next(_transfer_ids)
        self.destination_datacenter = destination_datacenter
        self.pre_combine = pre_combine
        self.resolved_destinations: List[str] = []
