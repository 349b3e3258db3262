"""The paper's core contribution, as a library.

* :mod:`repro.core.analysis` — the §III-B analytical model: per-reducer
  cross-datacenter fetch volume (Eq. (1)), the job-level lower bound
  ``S - s1`` (Eq. (2)), and the optimal aggregator choice they imply.
* :mod:`repro.core.aggregation` — runtime aggregator-datacenter
  selection for a stage (§IV-D: the datacenter storing the largest
  amount of map input), including the k-subset extension.
* :mod:`repro.core.transfer_injection` — the implicit embedding of
  ``transfer_to()`` before every shuffle (§IV-D's modified DAGScheduler,
  enabled by ``spark.shuffle.aggregation`` — here
  ``ShuffleConfig(backend="push_aggregate")``).

The user-facing ``transfer_to()`` transformation itself lives on
:class:`~repro.rdd.rdd.RDD`; this package hosts the decision logic.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.analysis": (
        "cross_dc_traffic_lower_bound", "optimal_reducer_datacenter",
        "reducer_fetch_volume", "total_fetch_volume",
    ),
    "repro.core.aggregation": (
        "select_aggregator_datacenters", "stage_input_bytes_by_datacenter",
    ),
    "repro.core.transfer_injection": ("insert_transfers",),
})
