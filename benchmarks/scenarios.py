"""The hand-built scenarios behind five tables of ``benchmarks.tables``.

* ``fig1_pipelining`` and ``fig2_failure`` replay the paper's motivating
  timelines (Fig. 1 / Fig. 2) on a bare two-datacenter fabric.
* ``failure_recovery`` and ``degraded_links`` drive the chaos subsystem
  (``repro.failures``) on one small 3-datacenter cluster: the same
  reduce job, the same faults against every shuffle backend.
* ``engine_micro`` times the simulation substrate itself on the host
  (``time.perf_counter``): the vector fabric drive against the global
  re-solve oracle, and the scalar/vector plan-shape crossover.

Each ``build_*`` returns plain rows; the facts the shape checks need
(output equal to the clean run's, counters reconciled with the traffic
monitor) are recorded in them rather than asserted on the spot, so a
failing check names its row.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import repro.network.cascade as cascade
from benchmarks.e2e.workloads import fabric_plans, run_fabric_plan
from repro.analysis.sanitizer import reconcile_run
from repro.cluster.builder import ClusterSpec, build_topology, ec2_six_region_spec
from repro.cluster.context import ClusterContext
from repro.config import HealthConfig, ShuffleConfig, SimulationConfig
from repro.failures import ChaosEvent, ChaosSchedule
from repro.network.fabric import NetworkFabric
from repro.network.incremental import IncrementalFairShare
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator

# ---------------------------------------------------------------------------
# The paper's motivating examples (Fig. 1 and Fig. 2) on the bare fabric
# ---------------------------------------------------------------------------
# Setup (§III-A): two mapper workers A and B in one datacenter, reducers
# in another; the inter-datacenter link has 1/4 the capacity of a
# datacenter link.  Mapper A finishes at t=4, mapper B at t=8, and each
# produces one unit of shuffle input (4 s to transfer alone over the WAN
# link).  A 2-second scheduling gap separates a stage's completion from
# the next stage's task launch.
#
# * Fig. 1 — fetch: both transfers start when stage N+1 begins (t=10) and
#   share the WAN link, finishing at t=18.  Push: each transfer starts the
#   moment its mapper finishes (t=4 / t=8), runs alone, and finishes by
#   t=12; the reducers start at t=14 instead of t=18.
# * Fig. 2 — a reducer fails right after its first read.  Fetch must
#   re-fetch the shuffle input across the WAN; push re-reads it inside the
#   local datacenter.
# Abstract capacity units: the datacenter link moves 1 data unit per
# second; the WAN link 1/4 of that (the paper's "optimistic estimate").
_DC_CAPACITY = 1.0
_WAN_CAPACITY = 0.25
_MAP_OUTPUT_UNITS = 1.0
_MAP_FINISH_TIMES = (4.0, 8.0)
_SCHEDULING_GAP = 2.0
_REDUCE_DURATION = 4.0
_LOCAL_READ_DURATION = 0.5


@dataclass
class MotivationTimeline:
    """Event times of one simulated scenario."""

    transfer_starts: List[float]
    transfer_ends: List[float]
    reduce_start: float
    reduce_end: float

    @property
    def shuffle_input_ready(self) -> float:
        return max(self.transfer_ends)


def _build_fabric() -> Tuple[Simulator, NetworkFabric]:
    sim = Simulator()
    topology = Topology()
    topology.add_datacenter("dc-map")
    topology.add_datacenter("dc-reduce")
    for name in ("worker-a", "worker-b"):
        topology.add_host(
            name, "dc-map", access_bandwidth=_DC_CAPACITY, access_latency=0.0
        )
    topology.add_host(
        "reducer-host", "dc-reduce",
        access_bandwidth=_DC_CAPACITY, access_latency=0.0,
    )
    topology.connect_datacenters(
        "dc-map", "dc-reduce", _WAN_CAPACITY, latency=0.0
    )
    return sim, NetworkFabric(sim, topology)


def fetch_timeline() -> MotivationTimeline:
    """Fig. 1 (a): transfers start together when stage N+1 begins."""
    sim, fabric = _build_fabric()
    starts: List[float] = []
    ends: List[float] = []

    def scenario(sim):
        stage_start = max(_MAP_FINISH_TIMES) + _SCHEDULING_GAP
        yield sim.timeout(stage_start)
        flows = []
        for source in ("worker-a", "worker-b"):
            starts.append(sim.now)
            flows.append(
                fabric.transfer(
                    source, "reducer-host", _MAP_OUTPUT_UNITS, tag="shuffle"
                )
            )
        finished = yield sim.all_of(flows)
        for flow in finished:
            ends.append(flow.finished_at)
        yield sim.timeout(_REDUCE_DURATION)
        return sim.now

    reduce_end = sim.run_process(scenario(sim))
    return MotivationTimeline(
        transfer_starts=starts,
        transfer_ends=ends,
        reduce_start=max(ends),
        reduce_end=reduce_end,
    )


def push_timeline() -> MotivationTimeline:
    """Fig. 1 (b): each push starts the moment its mapper finishes."""
    sim, fabric = _build_fabric()
    starts: List[float] = []
    ends: List[float] = []

    def one_push(sim, source, ready_at):
        yield sim.timeout(ready_at)
        starts.append(sim.now)
        flow = yield fabric.transfer(
            source, "reducer-host", _MAP_OUTPUT_UNITS, tag="transfer_to"
        )
        ends.append(flow.finished_at)

    def scenario(sim):
        pushes = [
            sim.spawn(one_push(sim, source, ready))
            for source, ready in zip(
                ("worker-a", "worker-b"), _MAP_FINISH_TIMES
            )
        ]
        yield sim.all_of(pushes)
        # Reducers launch one scheduling gap after the data is in place.
        yield sim.timeout(_SCHEDULING_GAP)
        yield sim.timeout(_REDUCE_DURATION)
        return sim.now

    reduce_end = sim.run_process(scenario(sim))
    return MotivationTimeline(
        transfer_starts=sorted(starts),
        transfer_ends=sorted(ends),
        reduce_start=max(ends) + _SCHEDULING_GAP,
        reduce_end=reduce_end,
    )


@dataclass
class FailureRecovery:
    """Fig. 2: time to recover a failed reducer under each mechanism."""

    first_attempt_end: float
    recovery_read_seconds: float
    recovered_at: float


def fetch_failure_recovery() -> FailureRecovery:
    """Fig. 2 (a): the retry re-fetches shuffle input across the WAN."""
    sim, fabric = _build_fabric()

    def scenario(sim):
        yield sim.timeout(max(_MAP_FINISH_TIMES) + _SCHEDULING_GAP)
        yield fabric.transfer("worker-a", "reducer-host", _MAP_OUTPUT_UNITS)
        yield sim.timeout(_REDUCE_DURATION)  # the attempt that fails
        failed_at = sim.now
        refetch_start = sim.now
        yield fabric.transfer("worker-a", "reducer-host", _MAP_OUTPUT_UNITS)
        refetch_seconds = sim.now - refetch_start
        yield sim.timeout(_REDUCE_DURATION)
        return failed_at, refetch_seconds, sim.now

    failed_at, read_seconds, done = sim.run_process(scenario(sim))
    return FailureRecovery(failed_at, read_seconds, done)


def push_failure_recovery() -> FailureRecovery:
    """Fig. 2 (b): shuffle input already lives with the reducer."""
    sim, fabric = _build_fabric()

    def scenario(sim):
        yield sim.timeout(_MAP_FINISH_TIMES[0])
        yield fabric.transfer("worker-a", "reducer-host", _MAP_OUTPUT_UNITS)
        yield sim.timeout(_SCHEDULING_GAP)
        yield sim.timeout(_REDUCE_DURATION)  # the attempt that fails
        failed_at = sim.now
        # Recovery reads the locally stored shuffle input.
        yield sim.timeout(_LOCAL_READ_DURATION)
        read_seconds = sim.now - failed_at
        yield sim.timeout(_REDUCE_DURATION)
        return failed_at, read_seconds, sim.now

    failed_at, read_seconds, done = sim.run_process(scenario(sim))
    return FailureRecovery(failed_at, read_seconds, done)


# ---------------------------------------------------------------------------
# The chaos cluster shared by failure_recovery and degraded_links
# ---------------------------------------------------------------------------
BACKENDS = ("fetch", "push_aggregate", "pre_merge")
DURABLE = ("remote", "blob")
ALL_BACKENDS = BACKENDS + DURABLE
RECOVERY_PARTITIONS = 48  # four reduce waves on the 12-slot cluster
DEGRADED_PARTITIONS = 16
# Skewed input (paper §II-A: raw data is generated unevenly across
# datacenters): most blocks in dc-a, one in dc-b.  Push then aggregates
# into dc-a with a short WAN phase, so the three backends' reduce windows
# overlap in absolute time and one crash event can hit each mid-reduce;
# and reduce input crosses the dc-a<->dc-b pair in every backend.
PLACEMENT = ("dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1", "dc-a-w1", "dc-b-w0")
# Replicated (x2) input: round-robin replica placement takes *adjacent*
# candidates, so this variant keeps the dc-a skew but never repeats a host
# in adjacent slots — every block gets two copies and lineage recovery
# never bottoms out at a lost input block.
DURABLE_PLACEMENT = (
    "dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-b-w0"
)
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


def _context(
    backend: str, chaos=None, replication: int = 1,
    health: Optional[HealthConfig] = None,
) -> ClusterContext:
    spec = ClusterSpec(
        datacenters=("dc-a", "dc-b", "dc-c"),
        workers_per_datacenter=2,
        intra_dc_bandwidth=1 * GBPS,
        inter_dc_bandwidth=100 * MBPS,
        driver_datacenter="dc-a",
    )
    return ClusterContext(spec, SimulationConfig(
        shuffle=ShuffleConfig(backend=backend),
        jitter=None,
        scale_factor=1e5,
        chaos=chaos,
        dfs_replication=replication,
        health=health or HealthConfig(),
    ))


def _reduce_job(
    context: ClusterContext, hosts: Sequence[str], partitions: int,
    keys: int = 29, count: int = 96, drain: bool = False,
) -> Tuple[ClusterContext, List]:
    """``reduce_by_key`` over six input blocks on ``hosts``; returns the
    context (shut down) and the sorted output."""
    records = [(f"k{i % keys}", i) for i in range(count)]
    context.write_input_file(
        "/in", [records[i::6] for i in range(6)], placement_hosts=list(hosts)
    )
    result = sorted(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=partitions)
        .collect()
    )
    if drain:
        context.sim.run()  # background repair flows (remote re-replication)
    context.shutdown()
    return context, result


def _recovery_run(backend, chaos=None, replication=1, placement=PLACEMENT):
    return _reduce_job(
        _context(backend, chaos, replication), placement,
        RECOVERY_PARTITIONS, drain=True,
    )


def _reduce_spans(context, kind="result") -> List:
    return [
        span
        for stage in context.metrics.job.stages
        if stage.kind == kind
        for span in stage.tasks
    ]


def _shared_crash_event(cleans: Dict[str, ClusterContext]) -> ChaosEvent:
    """One (host, time) inside *every* backend's reduce window.

    Scans the overlap of the three reduce windows for the earliest time at
    which some host runs a reduce attempt in every backend, preferring a
    victim inside push's aggregator datacenter: the Fig. 2 scenario — the
    relaunched push reducer re-reads staged input from its own datacenter,
    the relaunched fetch reducer re-fetches remote map output over the WAN.
    """
    windows = [
        (min(s.started_at for s in spans), max(s.finished_at for s in spans))
        for spans in map(_reduce_spans, cleans.values())
    ]
    start = max(low for low, _high in windows)
    end = min(high for _low, high in windows)
    if start >= end:
        raise AssertionError("reduce windows do not overlap")
    push = cleans["push_aggregate"]
    by_dc: Dict[str, int] = {}
    for span in _reduce_spans(push):
        datacenter = push.topology.datacenter_of(span.host)
        by_dc[datacenter] = by_dc.get(datacenter, 0) + 1
    aggregator = max(sorted(by_dc), key=lambda dc: by_dc[dc])
    for step in range(2, 39):
        when = start + (step / 40) * (end - start)
        busy = set.intersection(*(
            {s.host for s in _reduce_spans(c) if s.started_at <= when <= s.finished_at}
            for c in cleans.values()
        ))
        hosts = sorted(
            h for h in busy if push.topology.datacenter_of(h) == aggregator
        )
        if hosts:
            return ChaosEvent(at=when, kind="crash", target=hosts[0])
    raise AssertionError(
        "no aggregator-DC host runs reducers in every backend at any "
        "time in the shared reduce window"
    )


def _chaos_row(clean: ClusterContext, context: ClusterContext, same: bool) -> Dict:
    counters = context.shuffle_service.counters
    landed = counters.landed()
    return {
        "clean_jct": clean.metrics.job.duration,
        "chaos_jct": context.metrics.job.duration,
        "same_output": same,
        "reconciled": reconcile_run(context) == [],
        "relaunched": context.recovery.tasks_relaunched,
        "resubmitted": context.recovery.stages_resubmitted,
        "recomputed": context.recovery.tasks_recomputed,
        "crashes": context.recovery.executor_crashes,
        "merger_losses": context.recovery.merger_losses,
        "worker_losses": context.recovery.shuffle_worker_losses,
        "recovery_wan_mb": landed["recovery_wan_bytes"] / 1e6,
        "recovery_intra_mb": landed["recovery_intra_dc_bytes"] / 1e6,
        "promotions": counters.replica_promotions,
        "rereplication_mb": counters.rereplication_bytes / 1e6,
        "blob_gets": counters.blob_gets,
    }


def build_failure_recovery(_size: int) -> Dict:
    """Four scenarios, every chaos run against its clean run.

    * A, crash: the same executor crash hits fetch, push_aggregate and
      pre_merge mid-reduce; storage survives.
    * B, merger: pre_merge loses its merger host and recovers by lineage.
    * C, degrade: a x0.1 WAN degradation; every output is unchanged.
    * D, durability vs lineage: the same storage-losing ``shuffle_worker``
      event, 25 % into each backend's own reduce window (the windows do
      not overlap in absolute time, so the fault is matched in relative
      position), hits all five backends.
    """
    cleans = {b: _recovery_run(b) for b in BACKENDS}
    crash = _shared_crash_event({b: c for b, (c, _r) in cleans.items()})
    rows: Dict = {"crash_event": crash}

    def against(clean, *args, **kwargs) -> Dict:
        context, result = _recovery_run(*args, **kwargs)
        return _chaos_row(clean[0], context, result == clean[1])

    rows["crash"] = {
        b: against(cleans[b], b, chaos=ChaosSchedule((crash,)))
        for b in BACKENDS
    }
    clean = _recovery_run("pre_merge", replication=2)
    datacenter = sorted(clean[0].shuffle_service._mergers)[0]
    when = min(s.started_at for s in _reduce_spans(clean[0])) + 0.5
    merger = ChaosSchedule((ChaosEvent(at=when, kind="merger", target=datacenter),))
    rows["merger"] = against(clean, "pre_merge", chaos=merger, replication=2)
    degrade = ChaosSchedule((
        ChaosEvent(at=1.0, kind="degrade", target="dc-a->dc-b", factor=0.1),
    ))
    rows["degrade"] = {
        b: against(cleans[b], b, chaos=degrade) for b in BACKENDS
    }
    rows["durability"] = {}
    for backend in ALL_BACKENDS:
        clean = _recovery_run(
            backend, replication=2, placement=DURABLE_PLACEMENT
        )
        spans = _reduce_spans(clean[0])
        low = min(s.started_at for s in spans)
        when = low + 0.25 * (max(s.finished_at for s in spans) - low)
        event = ChaosEvent(at=when, kind="shuffle_worker", target="dc-a")
        row = against(
            clean, backend, chaos=ChaosSchedule((event,)), replication=2,
            placement=DURABLE_PLACEMENT,
        )
        row["event_at"] = when
        row["clean_blob_gets"] = clean[0].shuffle_service.counters.blob_gets
        rows["durability"][backend] = row
    return rows


def check_failure_recovery(data: Dict) -> None:
    crash, durability = data["crash"], data["durability"]
    rows = [
        *crash.values(), data["merger"], *data["degrade"].values(),
        *durability.values(),
    ]
    for row in rows:
        assert row["same_output"] and row["reconciled"], row
    assert all(row["crashes"] == 1 for row in crash.values())
    # The Fig. 2 contrast: fetch pays WAN to recover, push does not.
    assert crash["fetch"]["recovery_wan_mb"] > 0
    assert crash["push_aggregate"]["recovery_wan_mb"] == 0
    assert data["merger"]["merger_losses"] == 1
    assert data["merger"]["resubmitted"] >= 1
    # Durability: under the same storage-losing event every lineage
    # backend resubmits, neither durable backend resubmits or recomputes.
    assert all(row["worker_losses"] == 1 for row in durability.values())
    for backend in BACKENDS:
        assert durability[backend]["resubmitted"] >= 1, backend
    for backend in DURABLE:
        assert durability[backend]["resubmitted"] == 0, backend
        assert durability[backend]["recomputed"] == 0, backend
    assert durability["remote"]["promotions"] >= 1
    assert durability["remote"]["rereplication_mb"] > 0
    blob = durability["blob"]
    assert blob["blob_gets"] >= blob["clean_blob_gets"]


def render_failure_recovery(data: Dict) -> List[str]:
    event = data["crash_event"]
    lines = [
        "Failure recovery under identical chaos (3-DC cluster, "
        f"{RECOVERY_PARTITIONS} reducers)",
        "",
        f"Scenario A — executor crash {event.target}@{event.at:.1f}s "
        "(mid-reduce, storage survives)",
        f"{'backend':<16}{'clean JCT':>11}{'chaos JCT':>11}"
        f"{'rec WAN MB':>12}{'rec intra MB':>14}{'relaunched':>12}"
        f"{'resubmitted':>13}",
    ]
    for backend, row in data["crash"].items():
        lines.append(
            f"{backend:<16}{row['clean_jct']:>11.1f}{row['chaos_jct']:>11.1f}"
            f"{row['recovery_wan_mb']:>12.1f}{row['recovery_intra_mb']:>14.1f}"
            f"{row['relaunched']:>12d}{row['resubmitted']:>13d}"
        )
    merger = data["merger"]
    lines += [
        "",
        "Scenario B — pre_merge merger-host loss (lineage resubmission)",
        f"  clean JCT {merger['clean_jct']:.1f}s -> chaos JCT "
        f"{merger['chaos_jct']:.1f}s, {merger['resubmitted']} stage(s) "
        f"resubmitted, {merger['recomputed']} task(s) recomputed, "
        "output byte-identical",
        "",
        "Scenario C — WAN degrade dc-a->dc-b x0.1 (output unchanged)",
        f"{'backend':<16}{'clean JCT':>11}{'chaos JCT':>11}{'resubmitted':>13}",
    ]
    for backend, row in data["degrade"].items():
        lines.append(
            f"{backend:<16}{row['clean_jct']:>11.1f}{row['chaos_jct']:>11.1f}"
            f"{row['resubmitted']:>13d}"
        )
    lines += [
        "",
        "Scenario D — durability vs lineage: shuffle_worker:dc-a "
        "(storage-losing) 25% into each backend's reduce window, "
        "DFS input replicated x2",
        f"{'backend':<16}{'event t':>9}{'clean JCT':>11}{'chaos JCT':>11}"
        f"{'resubmitted':>13}{'recovery MB':>13}{'re-repl MB':>12}"
        f"{'promotions':>12}",
    ]
    for backend, row in data["durability"].items():
        recovery = row["recovery_wan_mb"] + row["recovery_intra_mb"]
        lines.append(
            f"{backend:<16}{row['event_at']:>9.1f}"
            f"{row['clean_jct']:>11.1f}{row['chaos_jct']:>11.1f}"
            f"{row['resubmitted']:>13d}{recovery:>13.1f}"
            f"{row['rereplication_mb']:>12.1f}{row['promotions']:>12d}"
        )
    lines.append(
        "  durable backends recover by replica promotion (remote) or "
        "re-read of durable objects (blob): zero stages resubmitted"
    )
    return lines


# ---------------------------------------------------------------------------
# degraded_links: a transient flap and a sustained outage
# ---------------------------------------------------------------------------
def _degraded_run(backend, chaos=None):
    context = _context(backend, chaos, health=RETRY_HEALTH)
    return _reduce_job(context, PLACEMENT, DEGRADED_PARTITIONS)


def _transfer_run(chaos=None):
    """The push re-election job: the auto-elected aggregator is dc-b (the
    big block's primary), every block keeps a dc-c replica."""
    context = _context("push_aggregate", chaos, 2, RETRY_HEALTH)
    context.write_input_file(
        "/in",
        [[(f"k{i}", i) for i in range(8)], [("q", 1)]],
        placement_hosts=["dc-b-w0", "dc-c-w0"],
    )
    moved = context.text_file("/in").transfer_to()
    result = sorted(moved.reduce_by_key(lambda a, b: a + b).collect())
    context.shutdown()
    return context, result, moved.transfer_dependency.resolved_destinations


def _balanced_pre_merge_run(chaos=None):
    """pre_merge with dc-b holding two maps (so it elects a merger) and
    every block keeping a replica outside dc-b."""
    context = _context("pre_merge", chaos, 2, RETRY_HEALTH)
    hosts = ("dc-a-w0", "dc-b-w0", "dc-a-w1", "dc-b-w1", "dc-c-w0", "dc-c-w1")
    return _reduce_job(context, hosts, DEGRADED_PARTITIONS, keys=17, count=72)


def _outage_at(when: float) -> ChaosSchedule:
    return ChaosSchedule((ChaosEvent(at=when, kind="outage", target="dc-b"),))


def build_degraded_links(_size: int) -> Dict:
    """A, flap: a deep transient degrade (x0.01 for 5 s, both directions of
    dc-a<->dc-b) with flow retry and breakers on, absorbed at the flow
    layer.  B, outage: a sustained outage of the elected aggregation
    datacenter (push_aggregate re-elects) and of a merger datacenter
    (pre_merge recovers through lineage), with ``dfs_replication=2``."""
    flap = {}
    for backend in BACKENDS:
        clean, clean_result = _degraded_run(backend)
        context, result = _degraded_run(backend, chaos=FLAP)
        flap[backend] = {
            "clean_jct": clean.metrics.job.duration,
            "chaos_jct": context.metrics.job.duration,
            "same_output": result == clean_result,
            "retries": context.health.flow_retries,
            "trips": context.health.breaker_trips,
            "wasted_mb": context.health.retry_wasted_bytes / 1e6,
            "resubmitted": context.recovery.stages_resubmitted,
            "relaunched": context.recovery.tasks_relaunched,
        }
    clean, clean_result, clean_destinations = _transfer_run()
    when = min(
        (s.started_at + s.finished_at) / 2.0
        for stage in clean.metrics.job.stages
        if stage.kind != "transfer_producer"
        for s in stage.tasks
    )
    context, result, destinations = _transfer_run(chaos=_outage_at(when))
    push = {
        "clean_jct": clean.metrics.job.duration,
        "chaos_jct": context.metrics.job.duration,
        "same_output": result == clean_result,
        "clean_destinations": clean_destinations,
        "destinations": destinations,
        "reelections": context.health.reelections,
        "resubmitted": context.recovery.stages_resubmitted,
    }
    clean, clean_result = _balanced_pre_merge_run()
    when = min(s.started_at for s in _reduce_spans(clean)) + 0.5
    context, result = _balanced_pre_merge_run(chaos=_outage_at(when))
    merge = {
        "clean_jct": clean.metrics.job.duration,
        "chaos_jct": context.metrics.job.duration,
        "same_output": result == clean_result,
        "resubmitted": context.recovery.stages_resubmitted,
        "recomputed": context.recovery.tasks_recomputed,
    }
    return {"flap": flap, "push": push, "pre_merge": merge}


def check_degraded_links(data: Dict) -> None:
    flap, push, merge = data["flap"], data["push"], data["pre_merge"]
    for backend, row in flap.items():
        # The flap never escalates to lineage recovery.
        assert row["same_output"], backend
        assert row["resubmitted"] == 0 and row["relaunched"] == 0, backend
    assert flap["fetch"]["retries"] > 0
    assert sum(row["retries"] for row in flap.values()) > 0
    assert push["clean_destinations"] == ["dc-b"]
    assert push["same_output"] and push["reelections"] >= 1
    assert push["destinations"] and "dc-b" not in push["destinations"]
    assert merge["same_output"] and merge["resubmitted"] >= 1


def render_degraded_links(data: Dict) -> List[str]:
    lines = [
        "Health-aware degradation under degraded WAN links (3-DC cluster, "
        f"{DEGRADED_PARTITIONS} reducers)",
        "",
        "Scenario A — transient flap dc-a<->dc-b x0.01 for 5s, flow retry on",
        "  (zero stage resubmissions: the flap never escalates to lineage)",
        f"{'backend':<16}{'clean JCT':>11}{'chaos JCT':>11}{'retries':>9}"
        f"{'trips':>7}{'wasted MB':>11}{'resubmitted':>13}",
    ]
    for backend, row in data["flap"].items():
        lines.append(
            f"{backend:<16}{row['clean_jct']:>11.1f}{row['chaos_jct']:>11.1f}"
            f"{row['retries']:>9d}{row['trips']:>7d}{row['wasted_mb']:>11.1f}"
            f"{row['resubmitted']:>13d}"
        )
    push, merge = data["push"], data["pre_merge"]
    return lines + [
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


# ---------------------------------------------------------------------------
# engine_micro: the fabric drives and plan shapes, timed on the host
# ---------------------------------------------------------------------------
ENGINE_PAIRS = 20  # full size; the check size (6 pairs) is the smoke shape
_REPLAN_SIZES = (2, 4, 8, 16, 24, 32, 64, 96, 128, 256)


def _pairs_fabric(num_pairs: int, drive: str = "vector"):
    """Disjoint DC pairs — one fair-share component per pair."""
    sim, topo = Simulator(), Topology()
    for pair in range(num_pairs):
        for side in ("a", "b"):
            dc = f"P{pair}{side}"
            topo.add_datacenter(dc)
            for host in range(2):
                topo.add_host(
                    f"{dc}{host}", dc, access_bandwidth=GBPS, access_latency=0.0
                )
        topo.connect_datacenters(
            f"P{pair}a", f"P{pair}b", 100 * MBPS, latency=0.0
        )
    return sim, topo, NetworkFabric(sim, topo, drive=drive)


def _churn(drive: str, num_pairs: int, flows_per_pair: int):
    """num_pairs x flows_per_pair concurrent flows with distinct sizes (one
    departure instant each).  The wall time covers ``sim.run()`` only:
    every solve, departure and event, not the identical set-up."""
    sim, _topo, fabric = _pairs_fabric(num_pairs, drive)
    for pair in range(num_pairs):
        for index in range(flows_per_pair):
            size = 1e6 * (1 + index) + pair * 2.5e4
            fabric.transfer(f"P{pair}a0", f"P{pair}b0", size)
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    assert fabric.active_flow_count == 0
    assert len(fabric.completed_flows) == num_pairs * flows_per_pair
    return wall, sim.now, fabric.perf


def _mesh(plan, drive: str):
    """The e2e benchmark's ``mesh_capacity_changes`` scenario: one 6-DC
    component, all-to-all, its plan thrown away by every mid-run capacity
    change — the general-plan path the disjoint pairs never take."""
    started = time.perf_counter()
    sim, fabric = run_fabric_plan(plan, drive)
    wall = time.perf_counter() - started
    assert fabric.active_flow_count == 0
    assert len(fabric.completed_flows) == len(plan.flows)
    return wall, sim.now, fabric.perf


def _best(runs):
    return min(runs, key=lambda run: run[0])


def _drive_row(label: str, wall: float, perf, middle: str) -> str:
    return (
        f"{label:<22}{wall * 1e3:>9.1f} ms{perf.solves:>9.0f}"
        f"{perf.flows_touched:>15.0f}{middle}{perf.solver_seconds * 1e3:>13.1f} ms"
    )


def _mesh_report(scale: float):
    (plan,) = [
        p for p in fabric_plans(seed=0, scale=scale)
        if p.name == "mesh_capacity_changes"
    ]
    flows, changes = len(plan.flows), len(plan.capacity_changes)
    _mesh(plan, "vector")  # warm
    results = {
        drive: _best([_mesh(plan, drive) for _ in range(reps)])
        for drive, reps in (("global", 1), ("vector", 5))
    }
    lines = [
        f"Mesh with capacity changes — {flows} flows all-to-all on a "
        f"6-DC full mesh, {changes} mid-run WAN capacity changes",
        "(one component, general plans: one progressive fill per "
        "planned segment)",
        "",
        f"{'drive':<22}{'wall':>11}{'solves':>9}{'flows touched':>15}"
        f"{'planned':>10}{'fired':>8}{'solver':>16}",
    ]
    payload = {
        "hosts_per_dc": plan.hosts_per_dc, "capacity_changes": changes,
        "total_flows": flows, "drives": {},
    }
    for label, drive in (("global re-solve", "global"), ("vector (cascade)", "vector")):
        wall, final, perf = results[drive]
        lines.append(_drive_row(
            label, wall, perf, f"{perf.plan_segments_planned:>10.0f}"
            f"{perf.plan_segments_fired:>8.0f}",
        ))
        payload["drives"][drive] = {
            "wall_seconds": wall, "final_time": final,
            **{name: getattr(perf, name) for name in (
                "solves", "flows_touched", "plan_segments_planned",
                "plan_segments_fired", "solver_seconds",
            )},
        }
    return lines, payload


def _shuffle_component(flows: int, weighted: bool):
    """``flows`` fetches of one shuffle on the e2e cluster (six regions,
    four workers each): every reducer host pulls from every mapper host,
    at most six of either, so past 36 flows host pairs repeat the way a
    stage's tasks do.  Returns ``build_plan``'s arguments."""
    rng = random.Random(flows)
    spec = ec2_six_region_spec()
    topology = build_topology(spec)
    side = min(6, math.ceil(math.sqrt(flows)))
    mappers = rng.sample(spec.worker_names(), side)
    reducers = rng.sample(spec.worker_names(), side)
    pairs = [(m, r) for r in reducers for m in mappers if m != r]
    engine = IncrementalFairShare()
    for flow_id in range(flows):
        # The two-tenant stream's weights, or none.
        weight = (1.0, 2.0)[flow_id % 2] if weighted else 1.0
        engine.add_flow(
            flow_id, topology.route(*pairs[flow_id % len(pairs)]), weight
        )
    ids = list(range(flows))
    remaining = [rng.uniform(1e5, 4e6) for _ in ids]
    return (ids, remaining, *engine.subproblem(ids), 0.0), {
        "weights": engine.weights_for(ids)
    }


def _replan_micros(flows: int, weighted: bool, limit: int, budget: int) -> float:
    """Best-of-five mean construction time of one plan, in microseconds,
    with the crossover forced to ``limit``."""
    args, kwargs = _shuffle_component(flows, weighted)
    repetitions = max(8, budget // flows)
    saved, cascade.SCALAR_MAX_FLOWS = cascade.SCALAR_MAX_FLOWS, limit
    try:
        best = math.inf
        for _batch in range(5):
            started = time.perf_counter()
            for _rep in range(repetitions):
                plan = cascade.build_plan(*args, **kwargs)
            best = min(best, (time.perf_counter() - started) / repetitions)
    finally:
        cascade.SCALAR_MAX_FLOWS = saved
    assert plan.shape == ("vector" if limit == 0 else "scalar")
    return best * 1e6


def _replan_report(budget: int):
    """Construction cost of both resumable shapes by component size.
    Records what ``SCALAR_MAX_FLOWS`` claims: scalar not slower at K,
    vector not slower at 4 K."""
    crossover = cascade.SCALAR_MAX_FLOWS
    assert crossover in _REPLAN_SIZES and 4 * crossover in _REPLAN_SIZES
    lines = [
        "Small component re-plan — build_plan() of one shuffle's "
        "non-uniform component,",
        f"us per plan (two segments solved); SCALAR_MAX_FLOWS = {crossover}",
        "",
        f"{'flows':>6}{'scalar':>10}{'vector':>10}{'v/s':>7}"
        f"{'scalar 2:1':>13}{'vector 2:1':>12}{'v/s':>7}",
    ]
    payload: Dict = {"scalar_max_flows": crossover, "sizes": {}}
    for flows in _REPLAN_SIZES:
        row = {
            (shape, weighted): _replan_micros(flows, weighted, limit, budget)
            for weighted in (False, True)
            for shape, limit in (("scalar", 10**9), ("vector", 0))
        }
        lines.append(f"{flows:>6}" + "".join(
            f"{row['scalar', w]:>{a}.1f}{row['vector', w]:>{b}.1f}"
            f"{row['vector', w] / row['scalar', w]:>7.2f}"
            for w, a, b in ((False, 10, 10), (True, 13, 12))
        ))
        payload["sizes"][flows] = {
            f"{shape}{'_weighted' if weighted else ''}_us": micros
            for (shape, weighted), micros in row.items()
        }
    lines.append("")
    return lines, payload


def _substrate_probes() -> Dict[str, float]:
    """The kernel and fabric fast paths the tables above rest on, once
    each: event throughput, process switching, one small job end to end,
    and jitter on idle links (which must never reach the solver)."""
    from tests.conftest import make_context

    sim = Simulator()
    for index in range(10_000):
        sim.timeout(float(index % 100))
    sim.run()
    events = sim.processed_events

    def ping(sim):
        for _ in range(100):
            yield sim.timeout(1.0)

    switching = Simulator()
    for _ in range(100):
        switching.spawn(ping(switching))
    switching.run()

    context = make_context(push=True)
    context.write_input_file(
        "/in", [[(f"k{i}", 1) for i in range(20)] for _ in range(4)]
    )
    keys = len(context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect())
    context.shutdown()

    idle_sim, topo, fabric = _pairs_fabric(40)
    fabric.transfer("P0a0", "P0b0", 50e6)
    idle_sim.run(until=0.1)
    idle = [topo.wan_link(f"P{p}a", f"P{p}b") for p in range(1, 40)]
    for _tick in range(100):
        for link in idle:
            link.set_capacity(link.capacity * 1.0001)
            fabric.notify_capacity_change(changed_links=[link])
    idle_sim.run()
    return {
        "kernel_events": events, "switching_now": switching.now,
        "small_job_keys": keys, "jitter_noops": fabric.perf.jitter_noops,
        "idle_solves": fabric.perf.solves,
    }


def build_engine_micro(num_pairs: int) -> Dict:
    """The churn table (vector drive against the global re-solve oracle on
    disjoint pairs), the re-plan crossover table and the mesh table.  The
    check size (fewer pairs) is the smoke shape: a smaller churn matrix, a
    half-scale mesh, fewer re-plan repetitions, and only the ordering of
    the two drives held."""
    smoke = num_pairs < ENGINE_PAIRS
    flows_per_pair = 10 if smoke else 26
    _churn("vector", num_pairs, flows_per_pair)  # warm
    runs = {
        # Best-of-N tames host noise (results repeat exactly).
        drive: _best([_churn(drive, num_pairs, flows_per_pair) for _ in range(reps)])
        for drive, reps in (("global", 2), ("vector", 7))
    }
    seconds = {drive: run[0] for drive, run in runs.items()}
    speedup = seconds["global"] / seconds["vector"]
    total = num_pairs * flows_per_pair
    lines = [
        f"Fabric microbenchmark — {total} churning flows on "
        f"{num_pairs} disjoint DC pairs",
        "(arrivals coalesce at t=0; every departure perturbs its component)",
        "",
        f"{'drive':<22}{'wall':>11}{'solves':>9}{'flows touched':>15}"
        f"{'mean/solve':>13}{'solver':>16}",
        *(
            _drive_row(
                label, runs[d][0], runs[d][2],
                f"{runs[d][2].mean_flows_per_solve:>13.1f}",
            )
            for label, d in (("global re-solve", "global"), ("vector (cascade)", "vector"))
        ),
        "",
        f"vector/global speedup: {speedup:.1f}x",
        f"flows-per-wall-second (vector): {total / seconds['vector']:,.0f}",
        "",
    ]
    mesh_lines, mesh_payload = _mesh_report(0.5 if smoke else 1.0)
    replan_lines, replan_payload = _replan_report(150 if smoke else 600)
    return {
        "smoke": smoke, "pairs": num_pairs, "flows_per_pair": flows_per_pair,
        "speedup": speedup, "lines": lines + replan_lines + mesh_lines,
        "perf": {drive: run[2] for drive, run in runs.items()},
        "finals": {drive: run[1] for drive, run in runs.items()},
        "replan": replan_payload, "probes": _substrate_probes(),
        "json": {
            "scenario": {
                "num_pairs": num_pairs, "flows_per_pair": flows_per_pair,
                "total_flows": total, "smoke": smoke,
            },
            "drives": {
                drive: {
                    "wall_seconds": run[0], "final_time": run[1],
                    **{name: getattr(run[2], name) for name in (
                        "solves", "flows_touched", "mean_flows_per_solve",
                        "solver_seconds", "events",
                    )},
                }
                for drive, run in runs.items()
            },
            "speedups": {"vector_over_global": speedup},
            "mesh_capacity_changes": mesh_payload,
            "small_component_replan": replan_payload,
        },
    }


def check_engine_micro(data: Dict) -> None:
    finals, perf = data["finals"], data["perf"]["vector"]
    # Same simulated outcome on both drives (max-min allocation is unique;
    # the drives accumulate float error in different orders).
    assert abs(finals["vector"] - finals["global"]) <= 1e-9 * finals["global"]
    # Scoping: one cascade plan per disjoint pair, never re-solved.
    assert perf.solves == data["pairs"]
    assert perf.peak_active_flows == data["pairs"] * data["flows_per_pair"]
    # Host time: the smoke shape only holds the ordering (absolute ratios
    # are too noisy on shared runners), the full shape >= 15x.
    floor = 1.0 if data["smoke"] else 15.0
    assert data["speedup"] >= floor, f"vector/global {data['speedup']:.2f}x"
    # What SCALAR_MAX_FLOWS claims: scalar plans not slower at K flows,
    # vector plans not slower at 4 K (unit weights only: two tenants'
    # weights split every fill into more levels, which moves that crossing
    # out to 100-128 flows, and no component that large is weighted in any
    # benchmark workload).
    crossover = data["replan"]["scalar_max_flows"]
    at_k = data["replan"]["sizes"][crossover]
    at_4k = data["replan"]["sizes"][4 * crossover]
    for suffix in ("", "_weighted"):
        assert at_k[f"scalar{suffix}_us"] <= at_k[f"vector{suffix}_us"], at_k
    assert at_4k["vector_us"] <= at_4k["scalar_us"], at_4k
    mesh = data["json"]["mesh_capacity_changes"]
    final, vector = mesh["drives"]["global"]["final_time"], mesh["drives"]["vector"]
    assert abs(vector["final_time"] - final) <= 1e-9 * final
    # The mesh's capacity changes really re-planned (one landing on an idle
    # link is a no-op, so not necessarily once each); the planner solves
    # ahead in doubling batches, never the whole future: a thrown-away
    # plan cost at most two segments per departure timer fired, plus two.
    assert vector["solves"] > mesh["capacity_changes"] // 2
    assert vector["plan_segments_planned"] <= 2 * (
        vector["plan_segments_fired"] + vector["solves"]
    )
    probes = data["probes"]
    assert probes["kernel_events"] >= 10_000
    assert probes["switching_now"] == 100.0
    assert probes["small_job_keys"] == 20
    # Jitter on links carrying zero flows never reaches the solver: only
    # the busy pair's arrival and departure solved.
    assert probes["jitter_noops"] == 39 * 100
    assert probes["idle_solves"] <= 4
