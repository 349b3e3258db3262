"""The RDD engine: lazy, lineage-tracked, partitioned datasets.

This package reimplements the subset of Spark's RDD model the paper's
mechanism operates on:

* lazy transformations building a lineage DAG
  (:mod:`repro.rdd.rdd`, :mod:`repro.rdd.shuffled`),
* narrow vs. shuffle vs. *transfer* dependencies
  (:mod:`repro.rdd.dependencies`) — the transfer dependency is the
  paper's contribution, a stage boundary that moves data instead of
  sharding it,
* hash and range partitioners (:mod:`repro.rdd.partitioner`),
* logical-size estimation so scaled-down record counts still represent
  paper-scale byte volumes (:mod:`repro.rdd.size_estimator`).

Execution is *not* here: the DAG/task schedulers in
:mod:`repro.scheduler` walk the lineage and run tasks on the simulator.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.rdd.partitioner": ("Partitioner", "HashPartitioner", "RangePartitioner"),
    "repro.rdd.size_estimator": ("SizeEstimator",),
    "repro.rdd.dependencies": (
        "Dependency", "NarrowDependency", "RangeDependency", "ShuffleDependency",
        "TransferDependency",
    ),
    "repro.rdd.aggregator": ("Aggregator",),
    "repro.rdd.rdd": (
        "RDD", "HadoopRDD", "MappedRDD", "FlatMappedRDD", "FilteredRDD",
        "MapPartitionsRDD", "UnionRDD",
    ),
    "repro.rdd.shuffled": ("ShuffledRDD", "CoGroupedRDD"),
    "repro.rdd.transferred": ("TransferredRDD",),
})
