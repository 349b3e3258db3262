"""Sort: a full-data shuffle with range partitioning.

Program (HiBench equivalent)::

    data.map(parse).sortByKey().saveAsFile()

Every byte of the 320 MB input crosses the shuffle (no combiner), which
makes Sort the cleanest probe of raw shuffle-transfer behaviour.  Input
records are chunky ``(key, SizedRecord)`` pairs: one record stands for a
bucket of real 100-byte records sharing a key prefix, so range
partitioning still spreads them evenly over reducers.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.cluster.context import ClusterContext
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource
from repro.workloads.base import Workload
from repro.workloads.specs import SORT, WorkloadSpec

# Width of the random key space; keys are fixed-width hex strings so
# lexicographic order equals numeric order.
_KEY_SPACE = 16 ** 8


def _key_string(value: int) -> str:
    return f"{value:08x}"


def _parse(record):
    return record


class Sort(Workload):
    """320 MB of keyed records, globally sorted."""

    def __init__(self, spec: WorkloadSpec = SORT) -> None:
        super().__init__(spec)

    @property
    def output_path(self) -> str:
        return f"/output/{self.spec.name.lower()}"

    # ------------------------------------------------------------------
    def generate(self, randomness: RandomSource) -> List[List[Any]]:
        record_bytes = (
            self.spec.bytes_per_input_partition / self.spec.records_per_partition
        )
        stream = randomness.stream("sort:keys")
        partitions: List[List[Any]] = []
        for _partition in range(self.spec.input_partitions):
            records = [
                (
                    _key_string(stream.randrange(_KEY_SPACE)),
                    SizedRecord(None, natural_size=record_bytes),
                )
                for _ in range(self.spec.records_per_partition)
            ]
            partitions.append(records)
        return partitions

    def sample_keys(self, randomness: RandomSource) -> List[str]:
        """Representative keys for the range partitioner (the stand-in
        for Spark's sampling pre-pass; keys are uniform in the space)."""
        stream = randomness.stream("sort:samples")
        return [_key_string(stream.randrange(_KEY_SPACE)) for _ in range(1000)]

    # ------------------------------------------------------------------
    def build(self, context: ClusterContext) -> RDD:
        data = context.text_file(self.input_path)
        parsed = data.map(_parse, name="parse")
        return parsed.sort_by_key(
            sample_keys=self.sample_keys(context.randomness),
            num_partitions=self.spec.reduce_partitions,
        )

    def run(self, context: ClusterContext) -> None:
        self.build(context).save_as_file(self.output_path)
        return None

    # ------------------------------------------------------------------
    def reference_result(self, partitions: Sequence[List[Any]]) -> List[str]:
        """Ground truth: all keys in sorted order."""
        keys = [key for partition in partitions for key, _value in partition]
        return sorted(keys)
