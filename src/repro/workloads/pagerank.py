"""PageRank: the iterative, multi-shuffle machine-learning workload.

Program (HiBench equivalent)::

    links = edges.groupByKey().cache()
    ranks = links.mapValues(lambda _: 1.0)
    for _ in range(3):
        contribs = links.join(ranks).flatMap(spread_rank)
        ranks = contribs.reduceByKey(add).mapValues(damping)
    ranks.collect()

The 500,000-page web graph is represented as a super-node graph: each
super-page stands for a bucket of real pages, each super-edge carries
the logical bytes of its bucket's adjacency lists.  Every iteration
re-shuffles the (cached) links for the join plus the rank contributions,
so PageRank is the workload where aggregation pays off most: once the
first shuffle lands in one datacenter, every later shuffle is local —
the paper reports a 91.3 % cross-datacenter traffic reduction (§V-C).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.cluster.context import ClusterContext
from repro.rdd.rdd import RDD
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource
from repro.workloads.base import Workload, add_weighted
from repro.workloads.specs import (
    PAGERANK,
    PAGERANK_ITERATIONS,
    PAGERANK_PAGES,
    WorkloadSpec,
)

# Super-graph shape: buckets of real pages and their logical volumes.
_SUPER_PAGES = 600
_DAMPING = 0.85
# Real bytes of all rank entries (500 k pages x ~16 B).
_TOTAL_RANK_BYTES = PAGERANK_PAGES * 16.0
# Real bytes of one iteration's rank contributions (edges x ~16 B).
_TOTAL_CONTRIB_BYTES = PAGERANK_PAGES * 10 * 16.0


class PageRank(Workload):
    """500 k pages, 3 power iterations over a cached link structure."""

    def __init__(
        self,
        spec: WorkloadSpec = PAGERANK,
        iterations: int = PAGERANK_ITERATIONS,
    ) -> None:
        super().__init__(spec)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.num_edges = spec.input_partitions * spec.records_per_partition
        self.edge_bytes = spec.total_input_bytes / self.num_edges
        self.rank_bytes = _TOTAL_RANK_BYTES / _SUPER_PAGES
        self.contrib_bytes = _TOTAL_CONTRIB_BYTES / self.num_edges

    # ------------------------------------------------------------------
    def generate(self, randomness: RandomSource) -> List[List[Any]]:
        """Random super-edges: (src page, SizedRecord(dst page, bytes))."""
        stream = randomness.stream("pagerank:edges")
        partitions: List[List[Any]] = []
        for _partition in range(self.spec.input_partitions):
            records = []
            for _ in range(self.spec.records_per_partition):
                src = stream.randrange(_SUPER_PAGES)
                dst = stream.randrange(_SUPER_PAGES)
                records.append(
                    (src, SizedRecord(dst, natural_size=self.edge_bytes))
                )
            partitions.append(records)
        return partitions

    # ------------------------------------------------------------------
    def _initial_rank(self, _neighbors) -> SizedRecord:
        return SizedRecord(1.0, natural_size=self.rank_bytes)

    def _spread_rank(self, record):
        _src, (neighbor_lists, rank_values) = record
        neighbors = [n for lst in neighbor_lists for n in lst]
        if not neighbors or not rank_values:
            return
        share = rank_values[0].payload / len(neighbors)
        contrib_bytes = self.contrib_bytes
        for neighbor in neighbors:
            yield (
                neighbor.payload,
                SizedRecord(share, natural_size=contrib_bytes),
            )

    def _damped_rank(self, value: SizedRecord) -> SizedRecord:
        return SizedRecord(
            (1 - _DAMPING) + _DAMPING * value.payload,
            natural_size=self.rank_bytes,
        )

    def build(self, context: ClusterContext) -> RDD:
        reduce_partitions = self.spec.reduce_partitions
        edges = context.text_file(self.input_path)
        links = edges.group_by_key(num_partitions=reduce_partitions).cache()
        ranks = links.map_values(self._initial_rank)
        for _iteration in range(self.iterations):
            contribs = links.cogroup(
                ranks, num_partitions=reduce_partitions
            ).flat_map(self._spread_rank, name="contrib")
            summed = contribs.reduce_by_key(
                add_weighted, num_partitions=reduce_partitions
            )
            ranks = summed.map_values(self._damped_rank)
        return ranks

    def run(self, context: ClusterContext) -> List[Any]:
        return self.build(context).collect()

    # ------------------------------------------------------------------
    def reference_result(
        self, partitions: Sequence[List[Any]]
    ) -> Dict[int, float]:
        """Plain-Python power iteration over the same super-graph."""
        adjacency: Dict[int, List[int]] = {}
        for partition in partitions:
            for src, dst_record in partition:
                adjacency.setdefault(src, []).append(dst_record.payload)
        ranks = {src: 1.0 for src in adjacency}
        for _ in range(self.iterations):
            contribs: Dict[int, float] = {}
            for src, neighbors in adjacency.items():
                rank = ranks.get(src)
                if rank is None or not neighbors:
                    continue
                share = rank / len(neighbors)
                for neighbor in neighbors:
                    contribs[neighbor] = contribs.get(neighbor, 0.0) + share
            ranks = {
                page: (1 - _DAMPING) + _DAMPING * total
                for page, total in contribs.items()
            }
        return ranks

    @staticmethod
    def result_to_ranks(result: List[Any]) -> Dict[int, float]:
        return {page: value.payload for page, value in result}
