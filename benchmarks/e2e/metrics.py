"""Workload and metric declarations.

The single source of every name the benchmark emits: ``BENCHMARK.json``
must list exactly these (``test_harness.py`` checks it), ``run.py``
emits exactly these, and ``compare.py`` reads its bounds from here.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    # "host" (wall/CPU of this machine), "simulated" (the modelled
    # cluster's clock and bytes) or "count" (repeats exactly).
    base: str


WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "paper_matrix",
        "Fig. 7/8 matrix, 5 Table I workloads x 6 schemes: rdd.size_estimator "
        "and scheduler.task_scheduler do most of the work, network.* little",
    ),
    (
        "stream_fetch_busy",
        "saturating Poisson job stream on Spark/fetch: simulation.kernel and "
        "network.fabric+solver lead, task placement is small",
    ),
    (
        "stream_agg_fair",
        "saturating stream on AggShuffle, 64 jobs admitted at once: the deep "
        "pending queue makes scheduler.task_scheduler + network.topology lead",
    ),
    (
        "stream_idle",
        "sparse arrivals over a long simulated span: the only workload where "
        "network.jitter + simulation.random_source are visible",
    ),
    (
        "chaos_campaign",
        "fault-fuzz campaign over all backends x policies with the sanitizer "
        "on: the only workload running failures.*, analysis and repair paths",
    ),
    (
        "fabric_churn",
        "bare Simulator+Topology+NetworkFabric(vector) flow churn: network.* "
        "and native do >80% of the work, rdd and scheduler none",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

# name -> (Metric, bound).  Bound = share of the baseline median by
# which the metric may worsen before it counts as a regression; sized
# from the A/A spread measured on the seed commit (README, "Noise").
END_TO_END: Tuple[Tuple[Metric, float], ...] = (
    (Metric("wall_s", "s", "lower", "host"), 0.25),
    (Metric("cpu_s", "s", "lower", "host"), 0.25),
    (Metric("throughput_ops_s", "ops/s", "higher", "host"), 0.25),
    (Metric("setup_s", "s", "lower", "host"), 0.25),
    (Metric("sim_jct_mean_s", "s", "lower", "simulated"), 0.25),
)

# Results that cannot be driver-gated end-to-end metrics ride in the
# per-layer list and keep a same-seed bound of their own for compare.py
# (relative share, or absolute percentage points for the reductions):
# simulated results that do not apply to every workload (end-to-end
# metrics must be reported, non-zero, on all six; these read 0 where
# they do not apply), and peak memory, whose spread across *seeds* on
# paper_matrix (one seed-dependent cell sets the peak: 137-200 MB) is
# too close to the largest bound the driver's acceptance gate allows.
PER_LAYER_BOUNDS: Dict[str, Tuple[str, float]] = {
    "sim_jct_p95_s": ("relative", 0.001),
    "sim_wan_mb": ("relative", 0.001),
    "agg_jct_reduction_pct": ("points", 0.5),
    "agg_wan_reduction_pct": ("points", 0.5),
    "peak_rss_mb": ("relative", 0.10),
}
# compare.py runs both sides on one seed, so it judges this simulated
# metric at the same-seed bound; the BENCHMARK.json bound above has to
# absorb the cross-seed spread the driver's acceptance gate measures.
SAME_SEED_BOUNDS: Dict[str, float] = {"sim_jct_mean_s": 0.001}

# Fold targets of the traced run, in report order.  Each emits
# ``<layer>.self_s`` (host) and ``<layer>.calls`` (count).
LAYERS: Tuple[str, ...] = (
    "simulation.kernel",
    "simulation.random_source",
    "network.fabric",
    "network.solver",
    "network.topology",
    "network.jitter",
    "network.traffic_monitor",
    "scheduler.task_scheduler",
    "scheduler.dag_scheduler",
    "scheduler.job_scheduler",
    "scheduler.task_runtime",
    "rdd.size_estimator",
    "rdd",
    "shuffle.service",
    "shuffle.backends",
    "storage",
    "cluster",
    "core",
    "workloads",
    "failures.chaos",
    "failures.health",
    "failures.campaign",
    "analysis",
    "metrics",
    "experiments",
    "native",
    "harness",
    "repro.other",
)

MATRIX_WORKLOADS = ("wordcount", "sort", "terasort", "pagerank", "naivebayes")
MATRIX_SCHEMES = (
    "Spark",
    "Centralized",
    "AggShuffle",
    "PreMerge",
    "RemoteShuffle",
    "BlobShuffle",
)


def _per_layer() -> Tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower", "host"))
        out.append(Metric(f"{layer}.calls", "count", "lower", "count"))
    out += [
        Metric("trace.overhead_ratio", "ratio", "lower", "host"),
        Metric("trace.coverage", "ratio", "higher", "host"),
        # Harness-side spans around public calls, untraced.
        Metric("cli.import_s", "s", "lower", "host"),
        Metric("workloads.generate_s", "s", "lower", "host"),
        Metric("cluster.build_s", "s", "lower", "host"),
        Metric("experiments.warmup_s", "s", "lower", "host"),
    ]
    out += [
        Metric(f"cell.{name}.wall_s", "s", "lower", "host")
        for name in MATRIX_WORKLOADS
    ]
    out += [
        Metric(f"scheme.{name}.wall_s", "s", "lower", "host")
        for name in MATRIX_SCHEMES
    ]
    out += [
        # Deterministic counts from public snapshots of the traced rounds.
        Metric("simulation.events", "count", "lower", "count"),
        Metric("simulation.sim_seconds", "s", "lower", "simulated"),
        Metric("simulation.us_per_event", "us", "lower", "host"),
        Metric("network.flows", "count", "lower", "count"),
        Metric("network.solves", "count", "lower", "count"),
        Metric("network.flows_touched", "count", "lower", "count"),
        Metric("network.flows_touched_per_flow", "ratio", "lower", "count"),
        Metric("network.peak_active_flows", "count", "lower", "count"),
        Metric("network.jitter_noops", "count", "higher", "count"),
        Metric("network.route_cache_hit_ratio", "ratio", "higher", "count"),
        Metric("network.solver_s", "s", "lower", "host"),
        Metric("scheduler.stages_run", "count", "lower", "count"),
        Metric("scheduler.jobs_completed", "count", "higher", "count"),
        Metric("shuffle.blocks_fetched", "count", "lower", "count"),
        Metric("shuffle.blocks_pushed", "count", "lower", "count"),
        Metric("shuffle.wan_mb", "MB", "lower", "simulated"),
        Metric("shuffle.intra_dc_mb", "MB", "lower", "simulated"),
        Metric("shuffle.recovery_wan_mb", "MB", "lower", "simulated"),
        Metric("shuffle.replication_mb", "MB", "lower", "simulated"),
        Metric("shuffle.blob_requests", "count", "lower", "count"),
        Metric("failures.chaos_applied", "count", "higher", "count"),
        Metric("failures.chaos_applied_ratio", "ratio", "higher", "count"),
        Metric("failures.stages_resubmitted", "count", "lower", "count"),
        Metric("failures.tasks_relaunched", "count", "lower", "count"),
        Metric("failures.fetch_failures", "count", "lower", "count"),
        Metric("failures.flow_retries", "count", "lower", "count"),
        Metric("failures.job_fail_stops", "count", "lower", "count"),
        Metric("analysis.sanitizer_checks", "count", "higher", "count"),
        # Gated by compare.py at same-seed bounds (PER_LAYER_BOUNDS).
        Metric("peak_rss_mb", "MB", "lower", "host"),
        Metric("failed_op_ratio", "ratio", "lower", "count"),
        Metric("sim_jct_p95_s", "s", "lower", "simulated"),
        Metric("sim_wan_mb", "MB", "lower", "simulated"),
        Metric("agg_jct_reduction_pct", "%", "higher", "simulated"),
        Metric("agg_wan_reduction_pct", "%", "higher", "simulated"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()

END_TO_END_NAMES = tuple(metric.name for metric, _bound in END_TO_END)
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
_ALL_METRICS = (*(metric for metric, _bound in END_TO_END), *PER_LAYER)
UNITS: Dict[str, str] = {metric.name: metric.unit for metric in _ALL_METRICS}
BETTER: Dict[str, str] = {metric.name: metric.better for metric in _ALL_METRICS}
