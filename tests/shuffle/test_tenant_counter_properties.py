"""Per-tenant extension of the counter-vs-monitor byte-equality invariant.

The :class:`~repro.metrics.tenants.TenantLedger` charges at flow
*admission* while the traffic monitor records at flow *completion*;
cancelled flows (chaos, WAN retries) replace their charge with the bytes
actually delivered.  Once the simulation drains, the two views must
agree per tenant **bit-for-bit** — both sides reduce the identical
multiset of per-flow floats with ``math.fsum`` — not merely to a
tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator

TENANTS = ("gold", "bronze", "")  # "" = untenanted control traffic
HOSTS = ("a1", "a2", "b1", "b2")


def _fabric(drive):
    sim = Simulator()
    topo = Topology()
    topo.add_datacenter("A")
    topo.add_datacenter("B")
    for host in ("a1", "a2"):
        topo.add_host(host, "A", access_bandwidth=GBPS, access_latency=0.0)
    for host in ("b1", "b2"):
        topo.add_host(host, "B", access_bandwidth=GBPS, access_latency=0.0)
    topo.connect_datacenters("A", "B", 100 * MBPS, latency=0.001)
    fabric = NetworkFabric(sim, topo, drive=drive)
    return sim, fabric


def _assert_ledger_reconciles(fabric):
    """Ledger (admission-time) == monitor (completion-time), exactly."""
    ledger_bytes = fabric.tenant_ledger.bytes_by_tenant
    ledger_wan = fabric.tenant_ledger.wan_bytes_by_tenant
    monitor_bytes = fabric.monitor.by_tenant
    monitor_wan = fabric.monitor.cross_dc_by_tenant
    for tenant in set(ledger_bytes) | set(monitor_bytes):
        assert ledger_bytes.get(tenant, 0.0) == monitor_bytes.get(tenant, 0.0)
    for tenant in set(ledger_wan) | set(monitor_wan):
        assert ledger_wan.get(tenant, 0.0) == monitor_wan.get(tenant, 0.0)
    # The untenanted control traffic must never leak into either view.
    assert "" not in ledger_bytes and "" not in monitor_bytes


@st.composite
def _flow_plans(draw):
    drive = draw(st.sampled_from(("vector", "global")))
    weights = {
        "gold": draw(st.floats(0.5, 8.0)),
        "bronze": draw(st.floats(0.5, 8.0)),
    }
    num_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for _ in range(num_flows):
        src = draw(st.sampled_from(HOSTS))
        dst = draw(st.sampled_from(HOSTS))
        size = draw(st.floats(1e5, 5e7))
        tenant = draw(st.sampled_from(TENANTS))
        # None = let it finish; a float = cancel it mid-flight then.
        cancel_at = draw(
            st.one_of(st.none(), st.floats(0.01, 2.0))
        )
        flows.append((src, dst, size, tenant, cancel_at))
    return drive, weights, flows


@given(_flow_plans())
@settings(max_examples=60, deadline=None)
def test_ledger_reconciles_with_monitor_under_cancels(plan):
    drive, weights, flows = plan
    sim, fabric = _fabric(drive)
    for tenant, weight in weights.items():
        fabric.set_tenant_weight(tenant, weight)
    for src, dst, size, tenant, cancel_at in flows:
        event = fabric.transfer(src, dst, size, tag="shuffle", tenant=tenant)
        if cancel_at is not None:
            sim.call_at(
                cancel_at, lambda event=event: fabric.cancel(event)
            )
    sim.run()
    assert fabric.active_flow_count == 0
    _assert_ledger_reconciles(fabric)


def test_cancel_before_any_progress_refunds_everything():
    """A flow killed at t=0+ delivers nothing: the ledger must settle to
    0.0 and the monitor must not record the tenant at all — the exact
    multiset contract, including the degenerate entry."""
    sim, fabric = _fabric("vector")
    event = fabric.transfer("a1", "b1", 10e6, tag="shuffle", tenant="gold")
    sim.call_at(0.0, lambda: fabric.cancel(event))
    sim.run()
    assert fabric.tenant_ledger.bytes_by_tenant == {"gold": 0.0}
    assert "gold" not in fabric.monitor.by_tenant
    _assert_ledger_reconciles(fabric)


def test_stream_cell_reconciles_under_chaos():
    """End-to-end: a weighted two-tenant job stream on a degraded WAN
    with flow retries enabled — retry cancels refund charges, and the
    per-tenant rows must still match the monitor exactly."""
    from repro.config import HealthConfig, SimulationConfig
    from repro.experiments.runner import ExperimentPlan, run_workload_once
    from repro.experiments.schemes import SCHEME_REGISTRY
    from repro.failures.chaos import ChaosEvent, ChaosSchedule
    from repro.workloads import all_workloads
    from repro.workloads.arrivals import ArrivalSpec, StreamSpec, TenantSpec

    from tests.conftest import small_spec

    chaos = ChaosSchedule((
        ChaosEvent(at=1.0, kind="degrade", target="dc-a->dc-b",
                   factor=0.05, duration=10.0),
        ChaosEvent(at=1.0, kind="degrade", target="dc-b->dc-a",
                   factor=0.05, duration=10.0),
    ))
    health = HealthConfig(
        flow_retry_enabled=True,
        breaker_enabled=True,
        flow_deadline_base=0.05,
        flow_deadline_multiplier=3.0,
        max_flow_retries=2,
        flow_retry_backoff=0.05,
    )
    stream = StreamSpec(
        arrival=ArrivalSpec(
            process="poisson", rate_per_minute=120.0, num_jobs=8
        ),
        tenants=(
            TenantSpec("gold", weight=4.0, share=1.0),
            TenantSpec("bronze", weight=1.0, share=2.0),
        ),
        policy="fair",
        max_concurrent=2,
    )
    scheme = next(
        name
        for name, spec in SCHEME_REGISTRY.items()
        if spec.preprocess is None
    )
    plan = ExperimentPlan(
        cluster=small_spec(datacenters=("dc-a", "dc-b")),
        seeds=(0,),
        base_config=SimulationConfig(chaos=chaos, health=health),
        stream=stream,
    )
    result = run_workload_once(all_workloads()[0], scheme, 0, plan)
    assert result.stream["jobs_completed"] == 8
    assert result.chaos_events_applied > 0
    for tenant, row in result.tenants.items():
        assert row["bytes"] == row["monitor_bytes"], tenant
        assert row["wan_bytes"] == row["monitor_wan_bytes"], tenant
        assert row["wan_bytes"] <= row["bytes"]
    assert set(result.tenants) == {"gold", "bronze"}
