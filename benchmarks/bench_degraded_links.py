"""Health-aware degradation under degraded WAN links (ISSUE acceptance).

Two scenarios on the 3-datacenter chaos cluster:

* **flap** — a deep transient degrade (x0.01 for 5 s, both directions
  of the dc-a<->dc-b pair) with flow-level retry and circuit breakers
  enabled.  Every backend must finish with byte-identical output and
  **zero** stage resubmissions: the flap is absorbed entirely at the
  flow layer (cancel + re-issue), never escalated to lineage recovery.
* **outage** — a sustained outage of the elected aggregation datacenter
  (push_aggregate) and of a merger datacenter (pre_merge), with
  ``dfs_replication=2``.  Push re-elects its destination on producer
  resubmission; pre_merge recovers through lineage and re-merges (or
  leaves the layout scattered) on the survivors.  Output stays
  byte-identical either way.

Results land in ``benchmarks/results/degraded_links.txt``; CI runs this
with ``--smoke``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.matrix_cache import emit
from repro.cluster.builder import ClusterSpec
from repro.cluster.context import ClusterContext
from repro.config import HealthConfig, ShuffleConfig, SimulationConfig
from repro.failures import ChaosEvent, ChaosSchedule
from repro.network.topology import GBPS, MBPS

BACKENDS = ("fetch", "push_aggregate", "pre_merge")
NUM_PARTITIONS = 16
SCALE = 1e5
# Skewed input: most blocks in dc-a, one in dc-b, so reduce input
# crosses the (degraded) dc-a<->dc-b pair in every backend.
PLACEMENT = ("dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1", "dc-a-w1", "dc-b-w0")

# Aggressive deadlines (tighter than fair-share contention) so the
# 5-second flap reliably produces deadline misses during the window.
RETRY_HEALTH = HealthConfig(
    flow_retry_enabled=True,
    flow_deadline_base=0.05,
    flow_deadline_multiplier=3.0,
    max_flow_retries=2,
    flow_retry_backoff=0.05,
)

FLAP = ChaosSchedule((
    ChaosEvent(at=1.0, kind="degrade", target="dc-a->dc-b",
               factor=0.01, duration=5.0),
    ChaosEvent(at=1.0, kind="degrade", target="dc-b->dc-a",
               factor=0.01, duration=5.0),
))


def _spec() -> ClusterSpec:
    return ClusterSpec(
        datacenters=("dc-a", "dc-b", "dc-c"),
        workers_per_datacenter=2,
        intra_dc_bandwidth=1 * GBPS,
        inter_dc_bandwidth=100 * MBPS,
        driver_datacenter="dc-a",
    )


def _config(backend: str = "fetch", chaos=None,
            replication: int = 1) -> SimulationConfig:
    return SimulationConfig(
        shuffle=ShuffleConfig(backend=backend),
        jitter=None,
        scale_factor=SCALE,
        chaos=chaos,
        dfs_replication=replication,
        health=RETRY_HEALTH,
    )


def _run_skewed(backend: str, chaos=None) -> Tuple[ClusterContext, List]:
    context = ClusterContext(_spec(), _config(backend=backend, chaos=chaos))
    records = [(f"k{i % 29}", i) for i in range(96)]
    context.write_input_file(
        "/in",
        [records[i::6] for i in range(6)],
        placement_hosts=list(PLACEMENT),
    )
    result = sorted(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=NUM_PARTITIONS)
        .collect()
    )
    context.shutdown()
    return context, result


def _run_transfer(chaos=None) -> Tuple[ClusterContext, List, object]:
    """The push re-election job: auto-elected aggregator is dc-b (the
    big block's primary), every block keeps a dc-c replica."""
    context = ClusterContext(
        _spec(), _config(backend="push_aggregate", chaos=chaos, replication=2)
    )
    context.write_input_file(
        "/in",
        [[(f"k{i}", i) for i in range(8)], [("q", 1)]],
        placement_hosts=["dc-b-w0", "dc-c-w0"],
    )
    moved = context.text_file("/in").transfer_to()
    result = sorted(moved.reduce_by_key(lambda a, b: a + b).collect())
    context.shutdown()
    return context, result, moved.transfer_dependency


def _run_balanced_pre_merge(chaos=None) -> Tuple[ClusterContext, List]:
    """pre_merge with dc-b holding two maps (so it elects a merger)
    and every block keeping a replica outside dc-b."""
    context = ClusterContext(
        _spec(), _config(backend="pre_merge", chaos=chaos, replication=2)
    )
    records = [(f"k{i % 17}", i) for i in range(72)]
    context.write_input_file(
        "/in",
        [records[i::6] for i in range(6)],
        placement_hosts=[
            "dc-a-w0", "dc-b-w0", "dc-a-w1", "dc-b-w1", "dc-c-w0", "dc-c-w1",
        ],
    )
    result = sorted(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=NUM_PARTITIONS)
        .collect()
    )
    context.shutdown()
    return context, result


def _receiver_midpoint(context) -> float:
    spans = [
        span
        for stage in context.metrics.job.stages
        if stage.kind != "transfer_producer"
        for span in stage.tasks
    ]
    return min((span.started_at + span.finished_at) / 2.0 for span in spans)


def _run_scenarios() -> Dict:
    # ------------------------------------------------------------------
    # Scenario A: transient flap, absorbed at the flow layer
    # ------------------------------------------------------------------
    flap_rows = {}
    for backend in BACKENDS:
        clean_context, clean_result = _run_skewed(backend)
        context, result = _run_skewed(backend, chaos=FLAP)
        assert result == clean_result
        assert context.recovery.stages_resubmitted == 0
        assert context.recovery.tasks_relaunched == 0
        flap_rows[backend] = {
            "clean_jct": clean_context.metrics.job.duration,
            "chaos_jct": context.metrics.job.duration,
            "retries": context.health.flow_retries,
            "trips": context.health.breaker_trips,
            "wasted_mb": context.health.retry_wasted_bytes / 1e6,
            "resubmitted": context.recovery.stages_resubmitted,
        }
    assert flap_rows["fetch"]["retries"] > 0
    assert sum(row["retries"] for row in flap_rows.values()) > 0

    # ------------------------------------------------------------------
    # Scenario B: sustained outage of the aggregation / merger DC
    # ------------------------------------------------------------------
    clean_context, clean_result, dep = _run_transfer()
    assert getattr(dep, "resolved_destinations") == ["dc-b"]
    when = _receiver_midpoint(clean_context)
    schedule = ChaosSchedule((ChaosEvent(at=when, kind="outage", target="dc-b"),))
    context, result, dep = _run_transfer(chaos=schedule)
    assert result == clean_result
    assert context.health.reelections >= 1
    destinations = getattr(dep, "resolved_destinations")
    assert destinations and "dc-b" not in destinations
    push_row = {
        "clean_jct": clean_context.metrics.job.duration,
        "chaos_jct": context.metrics.job.duration,
        "reelections": context.health.reelections,
        "resubmitted": context.recovery.stages_resubmitted,
        "destinations": destinations,
    }

    clean_context, clean_result = _run_balanced_pre_merge()
    spans = [
        span
        for stage in clean_context.metrics.job.stages
        if stage.kind == "result"
        for span in stage.tasks
    ]
    when = min(span.started_at for span in spans) + 0.5
    schedule = ChaosSchedule((ChaosEvent(at=when, kind="outage", target="dc-b"),))
    context, result = _run_balanced_pre_merge(chaos=schedule)
    assert result == clean_result
    assert context.recovery.stages_resubmitted >= 1
    merge_row = {
        "clean_jct": clean_context.metrics.job.duration,
        "chaos_jct": context.metrics.job.duration,
        "resubmitted": context.recovery.stages_resubmitted,
        "recomputed": context.recovery.tasks_recomputed,
    }

    return {"flap": flap_rows, "push": push_row, "pre_merge": merge_row}


def _render(data: Dict) -> List[str]:
    lines = [
        "Health-aware degradation under degraded WAN links (3-DC cluster, "
        f"{NUM_PARTITIONS} reducers)",
        "",
        "Scenario A — transient flap dc-a<->dc-b x0.01 for 5s, flow retry on",
        "  (zero stage resubmissions: the flap never escalates to lineage)",
        f"{'backend':<16}{'clean JCT':>11}{'chaos JCT':>11}{'retries':>9}"
        f"{'trips':>7}{'wasted MB':>11}{'resubmitted':>13}",
    ]
    for backend in BACKENDS:
        row = data["flap"][backend]
        lines.append(
            f"{backend:<16}{row['clean_jct']:>11.1f}{row['chaos_jct']:>11.1f}"
            f"{row['retries']:>9d}{row['trips']:>7d}{row['wasted_mb']:>11.1f}"
            f"{row['resubmitted']:>13d}"
        )
    push = data["push"]
    merge = data["pre_merge"]
    lines += [
        "",
        "Scenario B — sustained outage of the aggregation / merger DC "
        "(dfs_replication=2)",
        f"  push_aggregate: clean JCT {push['clean_jct']:.1f}s -> chaos JCT "
        f"{push['chaos_jct']:.1f}s, destination re-elected to "
        f"{','.join(push['destinations'])} ({push['reelections']} "
        f"re-election(s), {push['resubmitted']} resubmission(s)), "
        "output byte-identical",
        f"  pre_merge: clean JCT {merge['clean_jct']:.1f}s -> chaos JCT "
        f"{merge['chaos_jct']:.1f}s, {merge['resubmitted']} stage(s) "
        f"resubmitted, {merge['recomputed']} task(s) recomputed, "
        "output byte-identical",
    ]
    return lines


def test_degraded_links_across_backends(benchmark):
    data = benchmark.pedantic(_run_scenarios, rounds=1, iterations=1)
    emit("degraded_links.txt", _render(data))
    for backend in BACKENDS:
        assert data["flap"][backend]["resubmitted"] == 0
    assert data["push"]["reelections"] >= 1
