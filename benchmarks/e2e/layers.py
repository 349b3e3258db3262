"""Fold cProfile entries into the benchmark's layers by source path.

Nothing is instrumented inside ``src/``: the traced run executes the
same rounds under ``cProfile`` and every profile entry's self time
(``tottime``) and call count is charged to exactly one layer, chosen by
the longest matching prefix of its path under ``src/repro/``.  A module
added later falls to its package's default bucket and an unknown
package to ``repro.other``, so refactors never break the fold.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Tuple

from benchmarks.e2e.metrics import LAYERS

# Path prefix (relative to src/repro/, "/"-separated) -> layer; the
# longest match wins.  A bare "pkg/" entry is that package's default.
PREFIX_LAYERS: Dict[str, str] = {
    "simulation/": "simulation.kernel",
    "simulation/random_source.py": "simulation.random_source",
    "network/": "network.fabric",
    "network/vector_solver.py": "network.solver",
    "network/fair_share.py": "network.solver",
    "network/topology.py": "network.topology",
    "network/jitter.py": "network.jitter",
    "network/traffic_monitor.py": "network.traffic_monitor",
    "scheduler/": "scheduler.task_runtime",
    "scheduler/task_scheduler.py": "scheduler.task_scheduler",
    "scheduler/task.py": "scheduler.task_scheduler",
    "scheduler/dag_scheduler.py": "scheduler.dag_scheduler",
    "scheduler/stage.py": "scheduler.dag_scheduler",
    "scheduler/job_scheduler.py": "scheduler.job_scheduler",
    "rdd/": "rdd",
    "rdd/size_estimator.py": "rdd.size_estimator",
    "shuffle/": "shuffle.service",
    "shuffle/backends/": "shuffle.backends",
    "storage/": "storage",
    "cluster/": "cluster",
    "core/": "core",
    "workloads/": "workloads",
    "failures/": "failures.chaos",
    "failures/health.py": "failures.health",
    "failures/campaign.py": "failures.campaign",
    "analysis/": "analysis",
    "metrics/": "metrics",
    "experiments/": "experiments",
    "cli.py": "experiments",
    "config.py": "experiments",
    "errors.py": "experiments",
    "__init__.py": "experiments",
    "__main__.py": "experiments",
}
_PREFIXES_LONGEST_FIRST = sorted(PREFIX_LAYERS, key=len, reverse=True)

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_repro_path(relative: str) -> str:
    """Layer of a path given relative to ``src/repro/``."""
    relative = relative.replace(os.sep, "/")
    for prefix in _PREFIXES_LONGEST_FIRST:
        if relative.startswith(prefix):
            return PREFIX_LAYERS[prefix]
    return "repro.other"


def layer_of_file(filename: str, repro_dir: str) -> str:
    """Layer of one profiled frame's source file.

    Frames of the simulator fold by package path, the benchmark's own
    frames to ``harness``, and everything else — builtins (no file),
    numpy, the standard library — to ``native``.
    """
    if filename.startswith(repro_dir + os.sep):
        return layer_of_repro_path(filename[len(repro_dir) + 1:])
    if filename.startswith(HARNESS_DIR + os.sep):
        return "harness"
    return "native"


def fold(
    entries: Iterable, repro_dir: str
) -> Tuple[Dict[str, Tuple[float, int]], int]:
    """``cProfile.Profile.getstats()`` entries -> (layer -> (self_s,
    calls), sanitizer checks).

    The second value is the call count of the runtime sanitizer's
    ``check_*`` hooks: the checks are counted on per-cell Sanitizer
    objects that no public report exposes.
    """
    totals = {layer: [0.0, 0] for layer in LAYERS}
    sanitizer_file = os.path.join(repro_dir, "analysis", "sanitizer.py")
    sanitizer_checks = 0
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a builtin: no Python frame
            layer = "native"
        else:
            layer = layer_of_file(code.co_filename, repro_dir)
            if code.co_filename == sanitizer_file and code.co_name.startswith(
                "check_"
            ):
                sanitizer_checks += entry.callcount
        bucket = totals[layer]
        bucket[0] += entry.inlinetime
        bucket[1] += entry.callcount
    folded = {layer: (pair[0], pair[1]) for layer, pair in totals.items()}
    return folded, sanitizer_checks
