"""Durability-first backends: replication accounting and zero-lineage
recovery.

The ``remote`` and ``blob`` backends recover by durability (surviving
replicas / durable objects) instead of lineage.  Three invariant
families are pinned here:

* **accounting** — replication, re-replication, and blob request bytes
  thread through the same counter-vs-monitor equality as every other
  backend, under chaos and flow retries, once background repair flows
  drain (``sim.run()`` to event exhaustion);
* **recovery** — losing a shuffle worker with a surviving replica, or
  any number of map-side executors under the object store, completes
  the job with **zero stage resubmissions** and byte-correct results;
* **tenancy** — multi-tenant streams on the durable backends reconcile
  the admission-time ledger against the completion-time monitor exactly
  (background repair traffic is untenanted and must not leak).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.failures.chaos import ChaosEvent, ChaosSchedule
from tests.conftest import make_context, small_spec
from tests.shuffle.test_counter_properties import (
    _assert_counters_match_monitor,
)

HOSTS = ("dc-a-w0", "dc-a-w1", "dc-b-w0", "dc-b-w1")


def _run_reduce_job(context, num_keys: int = 7, num_records: int = 40):
    records = [(f"k{i % num_keys}", i) for i in range(num_records)]
    context.write_input_file("/in", [records[i::4] for i in range(4)])
    result = dict(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=8)
        .collect()
    )
    expected: dict = {}
    for key, value in records:
        expected[key] = expected.get(key, 0) + value
    return result, expected


# ---------------------------------------------------------------------------
# Counter-vs-monitor equality under chaos + flow retry
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    backend=st.sampled_from(("remote", "blob")),
    seed=st.integers(min_value=0, max_value=3),
    victim=st.sampled_from(HOSTS),
    fail_at=st.floats(min_value=0.3, max_value=6.0),
    retry=st.booleans(),
)
def test_durable_backends_reconcile_under_chaos(
    backend, seed, victim, fail_at, retry
):
    """Whatever the failure timing — mid-map, mid-upload, mid-reduce —
    the job completes correctly and, once background repair flows drain,
    the backend's counters equal the traffic monitor over its tags."""
    overrides = {}
    if retry:
        from repro.config import HealthConfig

        overrides["health"] = HealthConfig(
            flow_retry_enabled=True,
            flow_deadline_base=0.5,
            flow_deadline_multiplier=3.0,
            max_flow_retries=2,
            flow_retry_backoff=0.05,
        )
    context = make_context(
        backend=backend,
        seed=seed,
        chaos=ChaosSchedule(
            (ChaosEvent(at=fail_at, kind="host", target=victim),)
        ),
        dfs_replication=2,
        scale_factor=1e5,
        **overrides,
    )
    result, expected = _run_reduce_job(context)
    assert result == expected
    context.sim.run()  # drain background re-replication
    _assert_counters_match_monitor(context)
    context.shutdown()


# ---------------------------------------------------------------------------
# Zero-resubmission recovery
# ---------------------------------------------------------------------------
def test_remote_worker_loss_recovers_without_resubmission():
    """Killing a pool worker after the map barrier promotes its replicas:
    reads continue, no stage is resubmitted, and the promotion plus the
    background re-replication that restores r are both counted."""
    context = make_context(
        backend="remote",
        chaos=ChaosSchedule(
            # After the hand-off (replication lands ~t=4.9), mid-reduce.
            (ChaosEvent(at=5.5, kind="shuffle_worker", target="dc-a"),)
        ),
        dfs_replication=2,
        scale_factor=1e5,
    )
    result, expected = _run_reduce_job(context)
    assert result == expected
    assert context.recovery.shuffle_worker_losses == 1
    assert context.recovery.stages_resubmitted == 0
    counters = context.shuffle_service.counters
    assert counters.replica_promotions > 0
    assert counters.replication_bytes > 0
    context.sim.run()
    assert counters.rereplication_bytes > 0
    _assert_counters_match_monitor(context)
    context.shutdown()


def test_remote_replication_bytes_flow_even_without_chaos():
    """r=2 means every byte uploaded to a worker is also replicated —
    the replication counter is live traffic, not recovery-only."""
    context = make_context(backend="remote", scale_factor=1e5)
    result, expected = _run_reduce_job(context)
    assert result == expected
    counters = context.shuffle_service.counters
    assert counters.replication_bytes > 0
    assert counters.rereplication_bytes == 0
    assert counters.replica_promotions == 0
    _assert_counters_match_monitor(context)
    context.shutdown()


def test_blob_survives_datacenter_outage_without_resubmission():
    """The object store outlives executors: a whole-DC outage after the
    map barrier costs re-read traffic only — zero resubmissions, zero
    recomputed tasks, results byte-identical."""
    context = make_context(
        backend="blob",
        chaos=ChaosSchedule(
            (ChaosEvent(at=2.0, kind="outage", target="dc-a"),)
        ),
        dfs_replication=2,
        scale_factor=1e5,
    )
    result, expected = _run_reduce_job(context)
    assert result == expected
    assert context.recovery.datacenter_outages == 1
    assert context.recovery.stages_resubmitted == 0
    counters = context.shuffle_service.counters
    assert counters.blob_puts > 0
    assert counters.blob_gets > 0
    _assert_counters_match_monitor(context)
    context.shutdown()


def test_blob_outage_window_delays_but_never_fails_requests():
    context = make_context(
        backend="blob",
        chaos=ChaosSchedule((
            ChaosEvent(
                at=1.0, kind="blob_outage", target="dc-a", duration=3.0
            ),
        )),
        scale_factor=1e5,
    )
    result, expected = _run_reduce_job(context)
    assert result == expected
    assert context.recovery.blob_outages == 1
    assert context.recovery.stages_resubmitted == 0
    store = context.shuffle_service.blob_store()
    assert store.transient_retries > 0
    _assert_counters_match_monitor(context)
    context.shutdown()


@pytest.mark.parametrize("retry", (False, True))
def test_blob_reads_are_tagged_blob_get_with_and_without_flow_retry(retry):
    """Regression: with flow retries on, blob GET flows used to ride a
    retry helper that hard-coded ``tag="shuffle"``, so the monitor filed
    the same reads under a different tag depending on a health flag."""
    from repro.config import HealthConfig

    context = make_context(
        backend="blob",
        health=HealthConfig(flow_retry_enabled=retry),
        scale_factor=1e5,
    )
    result, expected = _run_reduce_job(context)
    assert result == expected
    assert context.traffic.by_tag["blob_get"] > 0
    assert context.traffic.by_tag.get("shuffle", 0.0) == 0
    assert "shuffle" not in context.shuffle_service.flow_tags
    _assert_counters_match_monitor(context)
    context.shutdown()


# ---------------------------------------------------------------------------
# Per-tenant ledger reconciliation on multi-tenant streams
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ("remote", "blob"))
def test_stream_cells_reconcile_per_tenant(backend):
    """Weighted two-tenant stream on a durable backend under WAN chaos
    with flow retries: admission-time ledger rows equal the monitor's
    completion-time rows exactly, and background repair traffic (which
    is untenanted) leaks into neither."""
    from repro.config import HealthConfig, SimulationConfig
    from repro.experiments.runner import ExperimentPlan, run_workload_once
    from repro.experiments.schemes import SCHEME_REGISTRY
    from repro.workloads import all_workloads
    from repro.workloads.arrivals import ArrivalSpec, StreamSpec, TenantSpec

    chaos = ChaosSchedule((
        ChaosEvent(at=1.0, kind="degrade", target="dc-a->dc-b",
                   factor=0.05, duration=10.0),
        ChaosEvent(at=2.0, kind="shuffle_worker", target="dc-a"),
    ))
    health = HealthConfig(
        flow_retry_enabled=True,
        flow_deadline_base=0.05,
        flow_deadline_multiplier=3.0,
        max_flow_retries=2,
        flow_retry_backoff=0.05,
    )
    stream = StreamSpec(
        arrival=ArrivalSpec(
            process="poisson", rate_per_minute=120.0, num_jobs=6
        ),
        tenants=(
            TenantSpec("gold", weight=4.0, share=1.0),
            TenantSpec("bronze", weight=1.0, share=2.0),
        ),
        policy="fair",
        max_concurrent=2,
    )
    scheme = next(
        spec.scheme
        for spec in SCHEME_REGISTRY
        if spec.backend == backend and spec.preprocess is None
    )
    plan = ExperimentPlan(
        cluster=small_spec(datacenters=("dc-a", "dc-b")),
        seeds=(0,),
        base_config=SimulationConfig(
            chaos=chaos, health=health, dfs_replication=2
        ),
        stream=stream,
    )
    result = run_workload_once(all_workloads()[0], scheme, 0, plan)
    assert result.stream["jobs_completed"] == 6
    for tenant, row in result.tenants.items():
        assert row["bytes"] == row["monitor_bytes"], tenant
        assert row["wan_bytes"] == row["monitor_wan_bytes"], tenant
    assert set(result.tenants) == {"gold", "bronze"}
