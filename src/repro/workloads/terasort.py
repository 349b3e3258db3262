"""TeraSort: a full-data shuffle whose map stage *bloats* the data.

Program (HiBench equivalent)::

    records.map(attach_partition_metadata).sortByKey().saveAsFile()

The HiBench implementation materialises (key, value) pairs with extra
partitioning metadata before the shuffle, so the shuffle input is
*larger* than the 3.2 GB raw input.  This is the paper's §V-B anomaly:
automatic aggregation then pushes the bloated dataset across
datacenters, and the Centralized scheme — which ships the smaller raw
input — needs the least cross-datacenter traffic of the three (Fig. 8),
with AggShuffle's job-completion advantage shrinking to ~4 %.

The paper's prescribed fix is an *explicit* ``transfer_to()`` before the
bloating map (§V-B); :meth:`TeraSort.build_with_explicit_transfer`
implements exactly that and is evaluated as an ablation.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.cluster.context import ClusterContext
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource
from repro.workloads.base import Workload
from repro.workloads.specs import TERASORT, TERASORT_BLOAT_FACTOR, WorkloadSpec

_KEY_SPACE = 16 ** 8


def _key_string(value: int) -> str:
    return f"{value:08x}"


class TeraSort(Workload):
    """32 M x 100 B records, sorted, with a bloating pre-shuffle map."""

    def __init__(
        self,
        spec: WorkloadSpec = TERASORT,
        bloat_factor: float = TERASORT_BLOAT_FACTOR,
    ) -> None:
        super().__init__(spec)
        if bloat_factor <= 0:
            raise ValueError("bloat_factor must be positive")
        self.bloat_factor = bloat_factor

    @property
    def output_path(self) -> str:
        return f"/output/{self.spec.name.lower()}"

    # ------------------------------------------------------------------
    def generate(self, randomness: RandomSource) -> List[List[Any]]:
        record_bytes = (
            self.spec.bytes_per_input_partition / self.spec.records_per_partition
        )
        stream = randomness.stream("terasort:keys")
        partitions: List[List[Any]] = []
        for _partition in range(self.spec.input_partitions):
            partitions.append(
                [
                    (
                        _key_string(stream.randrange(_KEY_SPACE)),
                        SizedRecord(None, natural_size=record_bytes),
                    )
                    for _ in range(self.spec.records_per_partition)
                ]
            )
        return partitions

    def sample_keys(self, randomness: RandomSource) -> List[str]:
        stream = randomness.stream("terasort:samples")
        return [_key_string(stream.randrange(_KEY_SPACE)) for _ in range(1000)]

    # ------------------------------------------------------------------
    def _attach_metadata(self, record):
        """The bloating map: every value grows by ``bloat_factor``."""
        key, value = record
        return (
            key,
            SizedRecord(
                value.payload, natural_size=value.natural_size * self.bloat_factor
            ),
        )

    def build(self, context: ClusterContext) -> RDD:
        records = context.text_file(self.input_path)
        bloated = records.map(self._attach_metadata, name="teragen-map")
        return bloated.sort_by_key(
            sample_keys=self.sample_keys(context.randomness),
            num_partitions=self.spec.reduce_partitions,
        )

    def build_with_explicit_transfer(
        self, context: ClusterContext, destination: Optional[str] = None
    ) -> RDD:
        """The developer fix from §V-B: transfer *raw* input first, then
        bloat inside the aggregator datacenter."""
        records = context.text_file(self.input_path)
        moved = records.transfer_to(destination_datacenter=destination)
        bloated = moved.map(self._attach_metadata, name="teragen-map")
        return bloated.sort_by_key(
            sample_keys=self.sample_keys(context.randomness),
            num_partitions=self.spec.reduce_partitions,
        )

    def run(self, context: ClusterContext) -> None:
        self.build(context).save_as_file(self.output_path)
        return None

    # ------------------------------------------------------------------
    def reference_result(self, partitions: Sequence[List[Any]]) -> List[str]:
        keys = [key for partition in partitions for key, _value in partition]
        return sorted(keys)
