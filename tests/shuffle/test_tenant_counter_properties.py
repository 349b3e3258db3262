"""Per-tenant bytes: views of the one record of landed bytes.

The traffic monitor records each flow once, when it lands: its full
size when it finishes, the bytes it delivered when it is cancelled
(chaos, WAN retries).  A tenant's ``bytes`` / ``wan_bytes`` are the
exact (``math.fsum``) sum of those floats, whatever order they landed
in; once a run carries tenanted traffic, every landed byte belongs to a
tenant (the sanitizer's tenant check).
"""

from __future__ import annotations

from math import fsum

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import InvariantViolation, Sanitizer, reconcile_run
from repro.experiments.schemes import Scheme
from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator
from tests.conftest import assert_every_byte_tenanted, run_two_tenant_stream

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


def _play(plan, make_fabric=_fabric):
    """Run ``plan``'s flows and cancels to the end; returns the fabric
    and, per flow, (tenant, crossed DCs, bytes the fabric reported
    delivered: a cancel's return value, else the full size)."""
    drive, weights, flows = plan
    sim, fabric = make_fabric(drive)
    for tenant, weight in weights.items():
        fabric.set_tenant_weight(tenant, weight)
    delivered = []
    for src, dst, size, tenant, cancel_at in flows:
        event = fabric.transfer(src, dst, size, tag="shuffle", tenant=tenant)
        outcome = [tenant, src[0] != dst[0], size]
        delivered.append(outcome)
        if cancel_at is not None:
            sim.call_at(
                cancel_at,
                lambda event=event, outcome=outcome: _cancel(
                    fabric, event, outcome
                ),
            )
    sim.run()
    return fabric, delivered


def _cancel(fabric, event, outcome) -> None:
    delivered = fabric.cancel(event)
    if delivered is not None:  # None: it had departed, so it lands in full
        outcome[2] = delivered


@given(_flow_plans())
@settings(max_examples=60, deadline=None)
def test_monitor_records_delivered_bytes_under_cancels(plan):
    """Each tenant's bytes are exactly the fsum of what its flows
    delivered, all and WAN; untenanted traffic is on no tenant."""
    fabric, delivered = _play(plan)
    assert fabric.active_flow_count == 0
    for tenant in ("gold", "bronze"):
        mine = [(wan, size) for who, wan, size in delivered if who == tenant]
        assert fabric.monitor.by_tenant.get(tenant, 0.0) == fsum(
            size for _wan, size in mine
        )
        assert fabric.monitor.cross_dc_by_tenant.get(tenant, 0.0) == fsum(
            size for wan, size in mine if wan
        )
    assert "" not in fabric.monitor.by_tenant
    assert fabric.monitor.total_bytes == pytest.approx(
        fsum(size for _who, _wan, size in delivered), rel=1e-12
    )


def _fabric_landing_cancels_in_full(drive):
    """Planted fault: a cancelled flow lands at its full size, not at
    the bytes it delivered."""
    sim, fabric = _fabric(drive)
    land = fabric._land
    fabric._land = lambda flow, _delivered: land(flow, flow.size_bytes)
    return sim, fabric


def _assert_analytic_landing(fabric):
    """Gold and bronze share the 100 Mbps WAN link at 6.25 MB/s each
    until gold is cancelled at t = 0.5 s: gold delivered 3.125 MB; bronze
    then drains alone and lands in full."""
    assert fabric.monitor.by_tenant == pytest.approx(
        {"gold": 0.5 * 100 * MBPS / 2, "bronze": 2e7}, rel=1e-9
    )


def test_a_cancel_landed_in_full_is_caught():
    """The analytic delivered bytes hold on the real fabric and fail on
    one whose cancel lands the flow's full size."""
    plan = (
        "vector",
        {"gold": 1.0, "bronze": 1.0},
        [("a1", "b1", 1e7, "gold", 0.5), ("a2", "b2", 2e7, "bronze", None)],
    )
    fabric, _delivered = _play(plan)
    _assert_analytic_landing(fabric)

    planted, _delivered = _play(plan, _fabric_landing_cancels_in_full)
    assert planted.monitor.by_tenant["gold"] == 1e7
    with pytest.raises(AssertionError):
        _assert_analytic_landing(planted)


@pytest.mark.parametrize("jobs", [100, 400])
def test_stream_leaves_no_per_flow_state(jobs):
    """After a two-tenant stream, the idle fabric's landed flows hold no
    key, the monitor keeps a few exact partials per tenant and a keyed
    entry per (tag, shuffle, recovery, crossed) — nothing per flow —
    and every landed byte is on its views.  Pre-merge, because its
    ``shuffle_merge`` flows are keyed (a Spark stream keys none)."""
    context = run_two_tenant_stream(Scheme.PREMERGE, jobs, 0)
    fabric, monitor = context.fabric, context.traffic
    backend = context.shuffle_service
    assert fabric.active_flow_count == 0
    assert all(flow.key is None for flow in fabric.completed_flows)
    assert len(monitor.by_key) <= 4 * len(backend.flow_tags) * (
        backend.counters.shuffles_registered + 1
    )
    held = (monitor._tenant_partials, monitor._tenant_wan_partials)
    assert set(held[0]) == {"prod", "batch"}
    for tenant in held[0]:
        assert len(held[0][tenant]) + len(held[1].get(tenant, ())) <= 8
    assert reconcile_run(context) == []


def test_cancel_before_any_progress_refunds_everything():
    """A flow killed at t=0+ delivers nothing: the monitor must not
    record the tenant at all."""
    sim, fabric = _fabric("vector")
    event = fabric.transfer("a1", "b1", 10e6, tag="shuffle", tenant="gold")
    cancelled = []
    sim.call_at(0.0, lambda: cancelled.append(fabric.cancel(event)))
    sim.run()
    assert cancelled == [0.0]
    assert fabric.monitor.by_tenant == {}
    assert fabric.monitor.total_bytes == 0.0


def test_a_backend_flow_that_drops_its_tenant_is_reported(monkeypatch):
    """Planted fault: the first move of a two-tenant pre-merge stream
    (a ``shuffle_merge`` flow) is issued without its tenant.  The real
    stream reconciles; on the planted one ``reconcile_run`` reports the
    untenanted bytes, and so does the sanitizer's stage-boundary
    check."""
    from repro.shuffle.service import ShuffleBackend

    assert reconcile_run(run_two_tenant_stream(Scheme.PREMERGE, 10, 0)) == []
    move = ShuffleBackend._move
    dropped = []

    def drop_one_tenant(self, src, dst, size, tag, tenant="", *rest, **kw):
        if tenant and not dropped:
            dropped.append(tag)
            tenant = ""
        return move(self, src, dst, size, tag, tenant, *rest, **kw)

    monkeypatch.setattr(ShuffleBackend, "_move", drop_one_tenant)
    planted = run_two_tenant_stream(Scheme.PREMERGE, 10, 0)
    assert dropped == ["shuffle_merge"]
    assert any(v.startswith("tenants: ") for v in reconcile_run(planted))
    with pytest.raises(InvariantViolation, match="tenants: .* at stage"):
        Sanitizer().check_landed(planted)


def test_stream_cell_reconciles_under_chaos():
    """End-to-end: a weighted two-tenant job stream on a degraded WAN
    with flow retries enabled — retry cancels land their delivered
    bytes, every one of them on a tenant's row."""
    from repro.config import HealthConfig, SimulationConfig
    from repro.experiments.runner import ExperimentPlan, run_workload_once
    from repro.failures.chaos import ChaosEvent, ChaosSchedule
    from repro.workloads import all_workloads
    from repro.workloads.arrivals import ArrivalSpec, StreamSpec, TenantSpec

    from tests.conftest import small_spec

    chaos = ChaosSchedule((
        ChaosEvent(at=0.0, kind="degrade", target="dc-a->dc-b",
                   factor=0.05, duration=60.0),
        ChaosEvent(at=0.0, kind="degrade", target="dc-b->dc-a",
                   factor=0.05, duration=60.0),
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
            process="poisson", rate_per_minute=120.0, num_jobs=8
        ),
        tenants=(
            TenantSpec("gold", weight=4.0, share=1.0),
            TenantSpec("bronze", weight=1.0, share=2.0),
        ),
        policy="fair",
        max_concurrent=2,
    )
    # AggShuffle's cross-DC transfer_to pulls are the stream's reads
    # that cross the degraded WAN, so they miss deadlines and retry.
    scheme = Scheme.AGGSHUFFLE
    plan = ExperimentPlan(
        cluster=small_spec(datacenters=("dc-a", "dc-b")),
        seeds=(0,),
        base_config=SimulationConfig(chaos=chaos, health=health),
        stream=stream,
    )
    result = run_workload_once(all_workloads()[0], scheme, 0, plan)
    assert result.stream["jobs_completed"] == 8
    assert result.chaos_events_applied > 0
    assert result.health["flow_retries"] > 0
    assert_every_byte_tenanted(result)
    for row in result.tenants.values():
        assert row["wan_bytes"] <= row["bytes"]
    assert set(result.tenants) == {"gold", "bronze"}
