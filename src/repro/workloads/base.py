"""Workload base class and shared record helpers.

A :class:`Workload` separates three concerns so the experiment harness
can reuse generated data across the three schemes being compared:

* :meth:`generate` — produce the input partitions (pure data, seeded);
* :meth:`install` — write those partitions into a cluster's DFS with a
  chosen block placement;
* :meth:`build` — construct the RDD program on a context;
* :meth:`run` — execute the action and return its result.

The functions a program hands its RDDs are methods of the workload or
module-level functions, never closures made inside :meth:`build`: built
on the next context, the workload passes the *same* functions, so the
dataset's memo (:mod:`repro.rdd.memo`) recognises the step.  They must
not change the records they are given — cells share them.

Record conventions
------------------
Coarse input records use :class:`SizedRecord` to carry paper-scale byte
volumes.  Intermediate key-value records whose real-world cardinality is
huge are *bucketised*: one simulated key stands for a bucket of real
keys, and its value is a ``SizedRecord(count, bucket_bytes)`` whose size
is the represented real bytes.  Merging two observations of the same
bucket adds the payloads and keeps the maximum size (the real merged
entry set does not grow when the same bucket of words is combined) —
see :func:`merge_counts`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.cluster.context import ClusterContext
from repro.errors import WorkloadError
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource
from repro.workloads.specs import WorkloadSpec


def merge_counts(left: SizedRecord, right: SizedRecord) -> SizedRecord:
    """Merge two bucketised count values: payloads add, sizes saturate."""
    return SizedRecord(
        left.payload + right.payload,
        max(left.natural_size, right.natural_size),
    )


def add_weighted(left: SizedRecord, right: SizedRecord) -> SizedRecord:
    """Merge two bucketised numeric contributions (e.g. PageRank mass)."""
    return SizedRecord(
        left.payload + right.payload,
        max(left.natural_size, right.natural_size),
    )


class Workload:
    """One benchmark: data generation plus the RDD program."""

    spec: WorkloadSpec

    def __init__(self, spec: WorkloadSpec) -> None:
        spec.validate()
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def input_path(self) -> str:
        return f"/input/{self.spec.name.lower()}"

    # ------------------------------------------------------------------
    # Data generation and installation
    # ------------------------------------------------------------------
    def generate(self, randomness: RandomSource) -> List[List[Any]]:
        """Produce the input partitions (one list of records per block)."""
        raise NotImplementedError

    def install(
        self,
        context: ClusterContext,
        partitions: Sequence[List[Any]],
        placement_hosts: Optional[Sequence[str]] = None,
    ) -> None:
        """Write generated partitions into the context's DFS."""
        if len(partitions) != self.spec.input_partitions:
            raise WorkloadError(
                f"{self.name}: expected {self.spec.input_partitions} "
                f"partitions, got {len(partitions)}"
            )
        context.write_input_file(
            self.input_path, partitions, placement_hosts=placement_hosts
        )

    # ------------------------------------------------------------------
    # Program
    # ------------------------------------------------------------------
    def build(self, context: ClusterContext) -> RDD:
        """Construct the job's final RDD on ``context``."""
        raise NotImplementedError

    def run(self, context: ClusterContext) -> Any:
        """Execute the workload's action; returns the action result."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Validation hook used by tests
    # ------------------------------------------------------------------
    def reference_result(self, partitions: Sequence[List[Any]]) -> Any:
        """Ground-truth result computed with plain Python (optional)."""
        raise NotImplementedError(
            f"{self.name} does not provide a reference result"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name}>"
