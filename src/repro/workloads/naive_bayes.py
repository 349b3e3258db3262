"""Naive Bayes training: two consecutive shuffles over classified text.

Program (HiBench equivalent)::

    pairs  = docs.flatMap(doc -> ((class, term), count))
    counts = pairs.reduceByKey(add)              # shuffle 1
    model  = counts.map(to_class).reduceByKey(merge)  # shuffle 2
    model.collect()

100,000 classified pages, 100 classes (Table I).  Classes and vocabulary
are bucketised like WordCount; the second shuffle folds per-(class, term)
counts into per-class model slices, whose sizes *add* (different terms
of a class are distinct model entries).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.cluster.context import ClusterContext
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource
from repro.workloads.base import Workload, merge_counts
from repro.workloads.specs import (
    NAIVE_BAYES,
    NAIVE_BAYES_CLASSES,
    WorkloadSpec,
)
from repro.workloads.text_gen import TextGenerator

# 100 real classes bucketised into 20 simulated class buckets.
_CLASS_BUCKETS = 20


def _merge_model_slices(left: SizedRecord, right: SizedRecord) -> SizedRecord:
    """Distinct model entries of one class: counts and bytes both add."""
    return SizedRecord(
        left.payload + right.payload,
        left.natural_size + right.natural_size,
    )


def _to_class(kv) -> Tuple[int, SizedRecord]:
    """((class, term), count) -> (class, model slice of that one term)."""
    return (kv[0][0], SizedRecord(kv[1].payload, kv[1].natural_size))


class NaiveBayes(Workload):
    """Classified documents -> per-class term-count model."""

    def __init__(
        self,
        spec: WorkloadSpec = NAIVE_BAYES,
        generator: TextGenerator | None = None,
    ) -> None:
        super().__init__(spec)
        self.generator = (
            generator
            if generator is not None
            else TextGenerator(vocabulary_buckets=1500, tokens_per_document=3000)
        )

    # ------------------------------------------------------------------
    def generate(self, randomness: RandomSource) -> List[List[Any]]:
        doc_bytes = (
            self.spec.bytes_per_input_partition / self.spec.records_per_partition
        )
        class_stream = randomness.stream("bayes:classes")
        partitions: List[List[Any]] = []
        for partition in range(self.spec.input_partitions):
            records = []
            for index in range(self.spec.records_per_partition):
                real_class = class_stream.randrange(NAIVE_BAYES_CLASSES)
                class_bucket = real_class % _CLASS_BUCKETS
                bag = self.generator.document(
                    randomness, f"bayes:p{partition}:d{index}"
                )
                records.append(
                    SizedRecord((class_bucket, bag), natural_size=doc_bytes)
                )
            partitions.append(records)
        return partitions

    # ------------------------------------------------------------------
    def _emit_pairs(self, document: SizedRecord):
        bucket_bytes = self.generator.bucket_bytes
        class_bucket, bag = document.payload
        for term_bucket, count in bag.items():
            yield (
                (class_bucket, term_bucket),
                SizedRecord(count, natural_size=bucket_bytes),
            )

    def build(self, context: ClusterContext) -> RDD:
        docs = context.text_file(self.input_path)
        pairs = docs.flat_map(self._emit_pairs, name="vectorize")
        term_counts = pairs.reduce_by_key(
            merge_counts, num_partitions=self.spec.reduce_partitions
        )
        class_slices = term_counts.map(_to_class, name="to-class")
        return class_slices.reduce_by_key(
            _merge_model_slices, num_partitions=self.spec.reduce_partitions
        )

    def run(self, context: ClusterContext) -> List[Any]:
        return self.build(context).collect()

    # ------------------------------------------------------------------
    def reference_result(
        self, partitions: Sequence[List[Any]]
    ) -> Dict[int, int]:
        """Ground truth: class bucket -> total token count."""
        totals: Counter = Counter()
        for partition in partitions:
            for document in partition:
                class_bucket, bag = document.payload
                totals[class_bucket] += sum(bag.values())
        return dict(totals)

    @staticmethod
    def result_to_totals(result: List[Tuple[int, Any]]) -> Dict[int, int]:
        return {class_bucket: value.payload for class_bucket, value in result}
