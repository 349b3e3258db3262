"""repro: reproduction of *Optimizing Shuffle in Wide-Area Data Analytics*
(Liu, Wang, Li — ICDCS 2017).

A from-scratch, simulation-backed reimplementation of the paper's
Push/Aggregate shuffle for geo-distributed data analytics:

* a discrete-event simulation kernel (:mod:`repro.simulation`),
* a flow-level WAN model with max-min fair sharing and bandwidth jitter
  (:mod:`repro.network`),
* an HDFS-like distributed store (:mod:`repro.storage`),
* a Spark-like RDD engine executing real data (:mod:`repro.rdd`),
* DAG/task schedulers with locality-aware placement
  (:mod:`repro.scheduler`),
* the paper's contribution — ``transfer_to()``, aggregator selection,
  and implicit embedding before shuffles (:mod:`repro.core`),
* HiBench-style workloads, failure injection, metrics, and the full
  experiment harness (:mod:`repro.workloads`, :mod:`repro.failures`,
  :mod:`repro.metrics`, :mod:`repro.experiments`).

Quickstart::

    from repro import ClusterContext, backend_config, ec2_six_region_spec

    context = ClusterContext(ec2_six_region_spec(), backend_config("push_aggregate"))
    context.write_input_file("words", [[("spark", 1), ("wan", 1)]] * 8)
    pairs = context.text_file("words")
    counts = pairs.reduce_by_key(lambda a, b: a + b).collect()
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, modules: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` for a
    package that re-exports ``modules`` (defining module -> public
    names).

    Importing the package then costs nothing; the first read of an
    exported name imports the one module that defines it and caches the
    value on the package, so ``from repro.network import Topology``
    loads ``network.topology`` and not the fabric.  ``dir()`` lists
    every exported name, resolved or not, without importing anything.
    Import layering rule and rationale: DESIGN.md section 5, "Import
    cost follows use".
    """
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.config": (
        "CostModel", "FailureConfig", "ShuffleConfig", "SimulationConfig",
        "backend_config",
    ),
    "repro.cluster.builder": (
        "ClusterSpec", "build_topology", "ec2_six_region_spec", "two_datacenter_spec",
    ),
    "repro.cluster.context": ("ClusterContext", "JobHandle"),
    "repro.errors": ("ReproError",),
})
__all__.append("__version__")
