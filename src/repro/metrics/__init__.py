"""Metrics: timelines, traffic, and the statistics the paper reports.

* :mod:`repro.metrics.collectors` — listener collecting job/stage/task
  spans and byte counters during a run.
* :mod:`repro.metrics.stats` — the 10 %-trimmed mean, median, and
  interquartile range used in Fig. 7 / Fig. 9.
* :mod:`repro.metrics.reporting` — plain-text tables for benchmark
  output.
* :mod:`repro.metrics.perf` — counters of the simulation substrate's
  own hot path (solver invocations, flows touched, wall time).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.metrics.collectors": (
        "JobMetrics", "MetricsCollector", "StageSpan", "TaskSpan",
    ),
    "repro.metrics.perf": ("FabricPerfCounters",),
    "repro.metrics.stats": (
        "interquartile_range", "median", "summarize", "trimmed_mean", "SummaryStats",
    ),
})
