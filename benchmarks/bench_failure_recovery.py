"""Failure recovery across shuffle backends under identical chaos.

Three scenarios on a 3-datacenter cluster, all driven by the chaos
subsystem (``repro.failures.chaos``) rather than the abstract Fig. 2
model:

* **crash**   — the *same* executor crash (same host, same simulated
  time, chosen inside every backend's reduce window) hits fetch,
  push_aggregate, and pre_merge.  Fetch pays recovery WAN bytes to
  re-fetch the relaunched reducer's input; push recovers entirely
  inside the aggregator datacenter (zero recovery WAN bytes);
* **merger**  — pre_merge loses its merger host mid-reduce and must
  resubmit the map stage from lineage, re-merge onto a survivor, and
  still produce the correct output;
* **degrade** — a deep WAN degradation mid-run; all backends finish
  with unchanged output;
* **durability vs lineage** — the *same* storage-losing event (the
  ``shuffle_worker`` chaos kind: kills the pool worker on the remote
  backend, the data-heaviest host elsewhere) hits all five backends
  mid-reduce.  The lineage backends (fetch / push_aggregate /
  pre_merge) must resubmit the map stage to recompute the lost shuffle
  data; the durable backends (remote / blob) absorb it with **zero**
  resubmissions — remote promotes surviving replicas and pays
  background re-replication bytes, blob re-registers its durable
  objects and pays re-read requests only.

Every chaos run's output is asserted byte-equal to its clean run, and
every backend's byte counters are asserted to reconcile exactly with
the traffic monitor (recovery bytes are a tagged subset, never
double-counted).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.matrix_cache import emit
from repro.cluster.builder import ClusterSpec
from repro.cluster.context import ClusterContext
from repro.config import ShuffleConfig, SimulationConfig
from repro.failures import ChaosEvent, ChaosSchedule
from repro.network.topology import GBPS, MBPS

BACKENDS = ("fetch", "push_aggregate", "pre_merge")
DURABLE = ("remote", "blob")
ALL_BACKENDS = BACKENDS + DURABLE
NUM_PARTITIONS = 48  # four reduce waves on the 12-slot cluster
SCALE = 1e5
# Skewed input (paper §II-A: raw data is generated unevenly across
# datacenters): most blocks in dc-a, one in dc-b.  Push then aggregates
# into dc-a with a short WAN phase, so all three backends' reduce
# windows overlap in absolute time and one crash event can hit each of
# them mid-reduce.
PLACEMENT = ("dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1", "dc-a-w1", "dc-b-w0")
# Scenario D replicates DFS input x2.  Round-robin replica placement
# takes *adjacent* entries of the candidate list, so this variant keeps
# the dc-a skew but never repeats a host in adjacent slots — every
# block genuinely gets two copies and lineage recovery never bottoms
# out at a lost input block.
DURABLE_PLACEMENT = (
    "dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-b-w0"
)


def _spec() -> ClusterSpec:
    return ClusterSpec(
        datacenters=("dc-a", "dc-b", "dc-c"),
        workers_per_datacenter=2,
        intra_dc_bandwidth=1 * GBPS,
        inter_dc_bandwidth=100 * MBPS,
        driver_datacenter="dc-a",
    )


def _config(backend: str, chaos=None, replication: int = 1) -> SimulationConfig:
    return SimulationConfig(
        shuffle=ShuffleConfig(backend=backend),
        jitter=None,
        scale_factor=SCALE,
        chaos=chaos,
        dfs_replication=replication,
    )


def _run(
    backend: str,
    chaos=None,
    replication: int = 1,
    placement: Tuple[str, ...] = PLACEMENT,
) -> Tuple[ClusterContext, List]:
    context = ClusterContext(_spec(), _config(backend, chaos, replication))
    records = [(f"k{i % 29}", i) for i in range(96)]
    context.write_input_file(
        "/in",
        [records[i::6] for i in range(6)],
        placement_hosts=list(placement),
    )
    result = sorted(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=NUM_PARTITIONS)
        .collect()
    )
    context.sim.run()  # drain background repair flows (remote re-replication)
    context.shutdown()
    return context, result


def _reduce_spans(context) -> List:
    return [
        span
        for stage in context.metrics.job.stages
        if stage.kind == "result"
        for span in stage.tasks
    ]


def _assert_counters_reconcile(context) -> None:
    backend = context.shuffle_service
    counters = backend.counters
    monitor = context.traffic
    total = sum(monitor.by_tag.get(tag, 0.0) for tag in backend.flow_tags)
    cross = sum(
        monitor.cross_dc_by_tag.get(tag, 0.0) for tag in backend.flow_tags
    )
    assert abs(counters.wan_bytes + counters.intra_dc_bytes - total) < 1e-6
    assert abs(counters.wan_bytes - cross) < 1e-6
    assert counters.recovery_wan_bytes <= counters.wan_bytes + 1e-9
    assert counters.recovery_intra_dc_bytes <= counters.intra_dc_bytes + 1e-9


def _shared_crash_event(cleans: Dict[str, ClusterContext]) -> ChaosEvent:
    """One (host, time) inside *every* backend's reduce window.

    Scans the overlap of the three reduce windows for the earliest time
    at which some host runs a reduce attempt in every backend, and
    prefers a victim inside push's aggregator datacenter: that is the
    Fig. 2 scenario — the relaunched push reducer re-reads staged input
    from its own datacenter, while the relaunched fetch reducer must
    re-fetch remote map output over the WAN.
    """
    starts, ends = [], []
    for context in cleans.values():
        spans = _reduce_spans(context)
        starts.append(min(span.started_at for span in spans))
        ends.append(max(span.finished_at for span in spans))
    window_start, window_end = max(starts), min(ends)
    assert window_start < window_end, "reduce windows do not overlap"

    # Push's reducers concentrate where the input was aggregated.
    push = cleans["push_aggregate"]
    by_dc: Dict[str, int] = {}
    for span in _reduce_spans(push):
        datacenter = push.topology.datacenter_of(span.host)
        by_dc[datacenter] = by_dc.get(datacenter, 0) + 1
    aggregator = max(sorted(by_dc), key=lambda dc: by_dc[dc])

    for step in range(2, 39):
        when = window_start + (step / 40) * (window_end - window_start)
        candidates = None
        for context in cleans.values():
            busy = {
                span.host
                for span in _reduce_spans(context)
                if span.started_at <= when <= span.finished_at
            }
            candidates = busy if candidates is None else candidates & busy
        in_aggregator = sorted(
            host
            for host in (candidates or ())
            if push.topology.datacenter_of(host) == aggregator
        )
        if in_aggregator:
            return ChaosEvent(at=when, kind="crash", target=in_aggregator[0])
    raise AssertionError(
        "no aggregator-DC host runs reducers in every backend at any "
        "time in the shared reduce window"
    )


def _storage_event_for(clean: ClusterContext) -> ChaosEvent:
    """The storage-losing ``shuffle_worker`` event, 25% into this
    backend's own clean reduce window.

    The backends' reduce windows do not overlap in absolute time (the
    remote backend's upload + replicate hand-off pushes its reduce
    phase out past the lineage backends' whole jobs), so the fault is
    matched in *relative* position instead: same kind, same target
    datacenter, same point in each backend's reduce phase.  The kind
    resolves per backend at fire time — dc-a's pool worker on the
    remote backend (primary shuffle copies), dc-a's data-heaviest host
    elsewhere (map / aggregated / merged output).  Early in the window,
    so later reduce waves still need the lost data — lineage backends
    must resubmit, durable ones must not.
    """
    spans = _reduce_spans(clean)
    window_start = min(span.started_at for span in spans)
    window_end = max(span.finished_at for span in spans)
    when = window_start + 0.25 * (window_end - window_start)
    return ChaosEvent(at=when, kind="shuffle_worker", target="dc-a")


def _run_scenarios() -> Dict:
    cleans: Dict[str, ClusterContext] = {}
    clean_results: Dict[str, List] = {}
    for backend in BACKENDS:
        cleans[backend], clean_results[backend] = _run(backend)

    crash = _shared_crash_event(cleans)
    schedule = ChaosSchedule((crash,))
    crash_rows = {}
    for backend in BACKENDS:
        context, result = _run(backend, chaos=schedule)
        assert result == clean_results[backend]
        assert context.recovery.executor_crashes == 1
        _assert_counters_reconcile(context)
        crash_rows[backend] = {
            "clean_jct": cleans[backend].metrics.job.duration,
            "chaos_jct": context.metrics.job.duration,
            "recovery_wan_mb": context.shuffle_service.counters.recovery_wan_bytes / 1e6,
            "recovery_intra_mb": context.shuffle_service.counters.recovery_intra_dc_bytes / 1e6,
            "relaunched": context.recovery.tasks_relaunched,
            "resubmitted": context.recovery.stages_resubmitted,
        }
    assert crash_rows["fetch"]["recovery_wan_mb"] > 0
    assert crash_rows["push_aggregate"]["recovery_wan_mb"] == 0

    # Merger-host loss: pre_merge only (replicated input so lineage
    # recovery never bottoms out at a lost block).
    clean_context, clean_result = _run("pre_merge", replication=2)
    mergers = clean_context.shuffle_service._mergers
    datacenter = sorted(mergers)[0]
    spans = _reduce_spans(clean_context)
    when = min(span.started_at for span in spans) + 0.5
    merger_schedule = ChaosSchedule(
        (ChaosEvent(at=when, kind="merger", target=datacenter),)
    )
    context, result = _run("pre_merge", chaos=merger_schedule, replication=2)
    assert result == clean_result
    assert context.recovery.merger_losses == 1
    assert context.recovery.stages_resubmitted >= 1
    _assert_counters_reconcile(context)
    merger_row = {
        "clean_jct": clean_context.metrics.job.duration,
        "chaos_jct": context.metrics.job.duration,
        "resubmitted": context.recovery.stages_resubmitted,
        "recomputed": context.recovery.tasks_recomputed,
    }

    # WAN degradation: every backend still produces its clean output.
    degrade_schedule = ChaosSchedule(
        (
            ChaosEvent(
                at=1.0, kind="degrade", target="dc-a->dc-b", factor=0.1
            ),
        )
    )
    degrade_rows = {}
    for backend in BACKENDS:
        context, result = _run(backend, chaos=degrade_schedule)
        assert result == clean_results[backend]
        _assert_counters_reconcile(context)
        degrade_rows[backend] = {
            "clean_jct": cleans[backend].metrics.job.duration,
            "chaos_jct": context.metrics.job.duration,
            "resubmitted": context.recovery.stages_resubmitted,
        }

    # Durability vs lineage: one storage-losing event, five backends.
    # Replicated DFS input so lineage recovery never bottoms out at a
    # lost input block — the contrast measured is pure shuffle recovery.
    d_cleans: Dict[str, ClusterContext] = {}
    d_results: Dict[str, List] = {}
    for backend in ALL_BACKENDS:
        d_cleans[backend], d_results[backend] = _run(
            backend, replication=2, placement=DURABLE_PLACEMENT
        )
    durability_rows = {}
    for backend in ALL_BACKENDS:
        storage_event = _storage_event_for(d_cleans[backend])
        context, result = _run(
            backend,
            chaos=ChaosSchedule((storage_event,)),
            replication=2,
            placement=DURABLE_PLACEMENT,
        )
        assert result == d_results[backend]
        assert context.recovery.shuffle_worker_losses == 1
        _assert_counters_reconcile(context)
        counters = context.shuffle_service.counters
        durability_rows[backend] = {
            "event_at": storage_event.at,
            "clean_jct": d_cleans[backend].metrics.job.duration,
            "chaos_jct": context.metrics.job.duration,
            "resubmitted": context.recovery.stages_resubmitted,
            "recomputed": context.recovery.tasks_recomputed,
            "recovery_mb": (
                counters.recovery_wan_bytes + counters.recovery_intra_dc_bytes
            ) / 1e6,
            "promotions": counters.replica_promotions,
            "rereplication_mb": counters.rereplication_bytes / 1e6,
            "blob_gets": counters.blob_gets,
        }
    # The separation the durable backends exist for: same event, zero
    # resubmissions and zero recomputation on remote/blob, lineage
    # resubmission everywhere else.
    for backend in BACKENDS:
        assert durability_rows[backend]["resubmitted"] >= 1, backend
    for backend in DURABLE:
        assert durability_rows[backend]["resubmitted"] == 0, backend
        assert durability_rows[backend]["recomputed"] == 0, backend
    assert durability_rows["remote"]["promotions"] >= 1
    assert durability_rows["remote"]["rereplication_mb"] > 0
    assert durability_rows["blob"]["blob_gets"] >= d_cleans[
        "blob"
    ].shuffle_service.counters.blob_gets

    return {
        "crash": crash_rows,
        "crash_event": crash,
        "merger": merger_row,
        "degrade": degrade_rows,
        "durability": durability_rows,
    }


def _render(data: Dict) -> List[str]:
    crash = data["crash"]
    event = data["crash_event"]
    lines = [
        "Failure recovery under identical chaos (3-DC cluster, "
        f"{NUM_PARTITIONS} reducers)",
        "",
        f"Scenario A — executor crash {event.target}@{event.at:.1f}s "
        "(mid-reduce, storage survives)",
        f"{'backend':<16}{'clean JCT':>11}{'chaos JCT':>11}"
        f"{'rec WAN MB':>12}{'rec intra MB':>14}{'relaunched':>12}"
        f"{'resubmitted':>13}",
    ]
    for backend in BACKENDS:
        row = crash[backend]
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
    for backend in BACKENDS:
        row = data["degrade"][backend]
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
    for backend in ALL_BACKENDS:
        row = data["durability"][backend]
        lines.append(
            f"{backend:<16}{row['event_at']:>9.1f}"
            f"{row['clean_jct']:>11.1f}{row['chaos_jct']:>11.1f}"
            f"{row['resubmitted']:>13d}{row['recovery_mb']:>13.1f}"
            f"{row['rereplication_mb']:>12.1f}{row['promotions']:>12d}"
        )
    lines.append(
        "  durable backends recover by replica promotion (remote) or "
        "re-read of durable objects (blob): zero stages resubmitted"
    )
    return lines


def test_failure_recovery_across_backends(benchmark):
    data = benchmark.pedantic(_run_scenarios, rounds=1, iterations=1)
    emit("failure_recovery.txt", _render(data))
    # The Fig. 2 contrast, now measured end-to-end through the chaos
    # subsystem: fetch pays WAN to recover, push does not.
    assert data["crash"]["fetch"]["recovery_wan_mb"] > 0
    assert data["crash"]["push_aggregate"]["recovery_wan_mb"] == 0
    # And the durability contrast: under the same storage-losing event
    # every lineage backend resubmits, neither durable backend does.
    assert all(
        data["durability"][b]["resubmitted"] >= 1 for b in BACKENDS
    )
    assert all(
        data["durability"][b]["resubmitted"] == 0 for b in DURABLE
    )
