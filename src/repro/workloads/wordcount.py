"""WordCount: the simplest workload, a single reduceByKey shuffle.

Program (HiBench equivalent)::

    text.flatMap(tokenize).reduceByKey(add).collect()

Input documents are bags of word-bucket counts (3.2 GB of text at paper
scale).  ``flat_map`` emits one ``(bucket, SizedRecord(count, bytes))``
pair per distinct bucket per document; map-side combine merges buckets
within each partition before the shuffle, exactly like Spark's combiner,
so the shuffle volume is the per-partition distinct vocabulary — the
realistic WordCount regime where shuffle input is much smaller than raw
input.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence

from repro.cluster.context import ClusterContext
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource
from repro.workloads.base import Workload, merge_counts
from repro.workloads.specs import WORDCOUNT, WorkloadSpec
from repro.workloads.text_gen import TextGenerator


class WordCount(Workload):
    """3.2 GB text -> (word bucket, total count)."""

    def __init__(
        self,
        spec: WorkloadSpec = WORDCOUNT,
        generator: TextGenerator | None = None,
    ) -> None:
        super().__init__(spec)
        self.generator = generator if generator is not None else TextGenerator()

    # ------------------------------------------------------------------
    def generate(self, randomness: RandomSource) -> List[List[Any]]:
        doc_bytes = self.spec.bytes_per_input_partition / self.spec.records_per_partition
        partitions: List[List[Any]] = []
        for partition in range(self.spec.input_partitions):
            docs = self.generator.documents(
                randomness,
                f"wordcount:p{partition}",
                self.spec.records_per_partition,
            )
            partitions.append(
                [SizedRecord(doc, natural_size=doc_bytes) for doc in docs]
            )
        return partitions

    # ------------------------------------------------------------------
    def _tokenize(self, document: SizedRecord):
        bucket_bytes = self.generator.bucket_bytes
        for bucket, count in document.payload.items():
            yield (bucket, SizedRecord(count, natural_size=bucket_bytes))

    def build(self, context: ClusterContext) -> RDD:
        text = context.text_file(self.input_path)
        pairs = text.flat_map(self._tokenize, name="tokenize")
        return pairs.reduce_by_key(
            merge_counts, num_partitions=self.spec.reduce_partitions
        )

    def run(self, context: ClusterContext) -> List[Any]:
        return self.build(context).collect()

    # ------------------------------------------------------------------
    def reference_result(
        self, partitions: Sequence[List[Any]]
    ) -> Dict[str, int]:
        """Plain-Python ground truth: bucket -> total count."""
        totals: Counter = Counter()
        for partition in partitions:
            for document in partition:
                totals.update(document.payload)
        return dict(totals)

    @staticmethod
    def result_to_counts(result: List[Any]) -> Dict[str, int]:
        """Convert collected (bucket, SizedRecord) pairs to plain counts."""
        return {bucket: value.payload for bucket, value in result}
