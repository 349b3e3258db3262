"""TransferredRDD: the dataset after a ``transfer_to`` (paper §IV-B).

A TransferredRDD has the same partitions and records as its parent — it
represents a pure *placement* change.  The :class:`TransferDependency`
marks a stage boundary, so each partition is produced by a dedicated
*receiver task*:

* its ``preferred_locations`` are every worker host of the aggregator
  datacenter, leaving the host-level choice to the task scheduler (the
  paper's load-balance argument in §IV-A);
* it becomes runnable as soon as its parent partition is materialised,
  pipelining WAN transfers with map execution (§IV-B's "bonus point");
* if the parent partition already lives in the destination datacenter the
  transfer degenerates to a local no-op ("completely transparent" tasks
  in Fig. 4 (b)) — the runtime handles this case with a zero-byte move.
"""

from __future__ import annotations

from typing import List, Optional

from repro.rdd.aggregator import Aggregator
from repro.rdd.dependencies import TransferDependency
from repro.rdd.rdd import RDD


class TransferredRDD(RDD):
    """Identity records, relocated into an aggregator datacenter."""

    def __init__(
        self,
        parent: RDD,
        destination_datacenter: Optional[str] = None,
        pre_combine: Optional[Aggregator] = None,
    ) -> None:
        dependency = TransferDependency(
            parent,
            destination_datacenter=destination_datacenter,
            pre_combine=pre_combine,
        )
        super().__init__(parent.context, [dependency], name="transferTo")
        self.transfer_dependency = dependency
        # Relocation does not change the key -> partition mapping.
        self.partitioner = parent.partitioner

    @property
    def num_partitions(self) -> int:
        return self.dependencies[0].parent.num_partitions

    def compute(self, index: int, runtime):
        # The runtime pulls the parent partition from its origin host to
        # the receiver task's host (a no-op when already local).
        records = yield from runtime.transfer_read(self.transfer_dependency, index)
        return records

    def preferred_locations(self, index: int) -> List[str]:
        """All hosts of the (resolved) destination datacenter.

        Resolution of an omitted destination happens at stage submission;
        the scheduler consults the resolved value, so this method returns
        hints only when an explicit destination was given.
        """
        destination = self.transfer_dependency.destination_datacenter
        if destination is None:
            return []
        return self.context.topology.hosts_in(destination)
