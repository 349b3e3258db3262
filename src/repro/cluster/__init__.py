"""Cluster assembly: the user-facing entry point.

:class:`~repro.cluster.context.ClusterContext` plays the role of a
``SparkContext``: it owns the simulator, network fabric, DFS, executors,
schedulers, trackers, and metrics for one simulated cluster, and exposes
``text_file`` / ``parallelize`` / job-running methods.

:mod:`repro.cluster.builder` provides topology construction helpers,
including the paper's six-region EC2 deployment (Fig. 6).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.builder": ("ClusterSpec", "build_topology", "ec2_six_region_spec"),
    "repro.cluster.context": ("ClusterContext", "JobHandle"),
})
