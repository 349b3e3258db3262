"""Mid-job fault recovery across shuffle backends (the Fig. 2 contrast).

Each scenario first runs a clean job to learn *when* and *where* reduce
work happens (chaos runs share the clean run's seed, so the prefix
before the fault is identical), then replays it with a chaos event
injected mid-reduce and checks that

* the job output is exactly the clean output,
* the recovery counters record what happened, and
* the backend's byte counters still reconcile with the traffic monitor
  (recovery traffic is a tagged *subset*, never double-counted).

``REPRO_SEEDS`` widens the seed sweep (CI runs the suite at 2).
"""

from __future__ import annotations

import os

import pytest

from repro.failures import ChaosEvent, ChaosSchedule
from tests.conftest import make_context
from tests.shuffle.test_counter_properties import _assert_counters_match_monitor

SEEDS = tuple(range(int(os.environ.get("REPRO_SEEDS", "1"))))

# Inflates tiny test records to paper-scale logical bytes so jobs run
# for simulated seconds and chaos events land while work is in flight.
SCALE = 1e5


def _install_job(context, num_partitions: int = 16):
    records = [(f"k{i % 13}", i) for i in range(60)]
    context.write_input_file("/in", [records[i::4] for i in range(4)])
    return context.text_file("/in").reduce_by_key(
        lambda a, b: a + b, num_partitions=num_partitions
    )


def _result_spans(context):
    spans = [
        span
        for stage in context.metrics.job.stages
        if stage.kind == "result"
        for span in stage.tasks
    ]
    assert spans, "job produced no result-stage tasks"
    return spans


def _first_reduce_attempt(context):
    """(host, midpoint) of the earliest-started result-stage task."""
    span = min(_result_spans(context), key=lambda s: s.started_at)
    return span.host, (span.started_at + span.finished_at) / 2.0


def _run(backend: str, seed: int, chaos=None, **overrides):
    context = make_context(
        backend=backend, seed=seed, scale_factor=SCALE, chaos=chaos,
        **overrides,
    )
    result = sorted(_install_job(context).collect())
    return context, result


# ---------------------------------------------------------------------------
# Executor crash mid-reduce (storage survives)
# ---------------------------------------------------------------------------
def _crash_mid_reduce(backend: str, seed: int):
    clean_context, clean_result = _run(backend, seed)
    victim, when = _first_reduce_attempt(clean_context)
    clean_context.shutdown()

    schedule = ChaosSchedule((ChaosEvent(at=when, kind="crash", target=victim),))
    context, result = _run(backend, seed, chaos=schedule)
    assert result == clean_result
    assert context.recovery.executor_crashes == 1
    assert context.recovery.tasks_relaunched >= 1
    _assert_counters_match_monitor(context)
    counters = context.shuffle_service.counters
    assert counters.recovery_wan_bytes <= counters.wan_bytes
    assert counters.recovery_intra_dc_bytes <= counters.intra_dc_bytes
    context.shutdown()
    return counters


@pytest.mark.parametrize("seed", SEEDS)
def test_fetch_crash_recovery_refetches_over_wan(seed):
    """Fig. 2 (a): a relaunched fetch reducer re-pulls its input across
    the WAN — recovery costs cross-datacenter bytes."""
    counters = _crash_mid_reduce("fetch", seed)
    assert counters.recovery_wan_bytes > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_push_crash_recovery_stays_intra_dc(seed):
    """Fig. 2 (b): the input was already aggregated into the reducer's
    datacenter, so the relaunched reducer recovers without WAN traffic."""
    counters = _crash_mid_reduce("push_aggregate", seed)
    assert counters.recovery_wan_bytes == 0
    assert (
        counters.recovery_intra_dc_bytes > 0
        or counters.recovery_wan_bytes == 0
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_pre_merge_crash_recovery_output_correct(seed):
    _crash_mid_reduce("pre_merge", seed)


# ---------------------------------------------------------------------------
# Merger-host loss (pre_merge's single point of failure)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_pre_merge_survives_merger_host_loss(seed):
    clean_context, clean_result = _run("pre_merge", seed, dfs_replication=2)
    mergers = dict(clean_context.shuffle_service._mergers)
    assert mergers, "pre_merge run recorded no merger hosts"
    datacenter = sorted(mergers)[0]
    _host, when = _first_reduce_attempt(clean_context)
    clean_context.shutdown()

    schedule = ChaosSchedule(
        (ChaosEvent(at=when, kind="merger", target=datacenter),)
    )
    context, result = _run(
        "pre_merge", seed, chaos=schedule, dfs_replication=2
    )
    assert result == clean_result
    assert context.recovery.merger_losses == 1
    assert context.recovery.stages_resubmitted >= 1
    assert context.recovery.tasks_recomputed >= 1
    assert context.recovery.fetch_failures >= 1
    _assert_counters_match_monitor(context)
    context.shutdown()


# ---------------------------------------------------------------------------
# Whole-host loss and datacenter outage (lineage recomputation)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fetch_host_loss_resubmits_parents_from_lineage(seed):
    clean_context, clean_result = _run("fetch", seed, dfs_replication=2)
    victim, when = _first_reduce_attempt(clean_context)
    clean_context.shutdown()

    schedule = ChaosSchedule((ChaosEvent(at=when, kind="host", target=victim),))
    context, result = _run("fetch", seed, chaos=schedule, dfs_replication=2)
    assert result == clean_result
    assert context.recovery.hosts_lost == 1
    assert context.recovery.stages_resubmitted >= 1
    assert context.recovery.tasks_recomputed >= 1
    _assert_counters_match_monitor(context)
    context.shutdown()


@pytest.mark.parametrize("seed", SEEDS)
def test_fetch_survives_datacenter_outage(seed):
    def install(context):
        records = [(f"k{i % 13}", i) for i in range(60)]
        # Pin input to dc-a so the dc-b outage cannot destroy the last
        # replica of any input block.
        context.write_input_file(
            "/in",
            [records[i::4] for i in range(4)],
            placement_hosts=context.workers_in("dc-a"),
        )
        return context.text_file("/in").reduce_by_key(
            lambda a, b: a + b, num_partitions=16
        )

    clean_context = make_context(backend="fetch", seed=seed, scale_factor=SCALE)
    clean_result = sorted(install(clean_context).collect())
    _host, when = _first_reduce_attempt(clean_context)
    clean_context.shutdown()

    schedule = ChaosSchedule((ChaosEvent(at=when, kind="outage", target="dc-b"),))
    context = make_context(
        backend="fetch", seed=seed, scale_factor=SCALE, chaos=schedule
    )
    result = sorted(install(context).collect())
    assert result == clean_result
    assert context.recovery.datacenter_outages == 1
    assert context.recovery.hosts_lost == 2
    assert list(context.executors) == ["dc-a-w0", "dc-a-w1"]
    _assert_counters_match_monitor(context)
    context.shutdown()


# ---------------------------------------------------------------------------
# WAN degradation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_wan_degradation_slows_job_but_output_unchanged(seed):
    clean_context, clean_result = _run("fetch", seed)
    clean_duration = clean_context.metrics.job.duration
    clean_context.shutdown()

    schedule = ChaosSchedule(
        (
            ChaosEvent(
                at=0.1, kind="degrade", target="dc-a->dc-b", factor=0.05
            ),
            ChaosEvent(
                at=0.1, kind="degrade", target="dc-b->dc-a", factor=0.05
            ),
        )
    )
    context, result = _run("fetch", seed, chaos=schedule)
    assert result == clean_result
    assert context.recovery.wan_degradations == 2
    assert context.metrics.job.duration > clean_duration
    _assert_counters_match_monitor(context)
    context.shutdown()
