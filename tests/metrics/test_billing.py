"""Inter-datacenter bandwidth billing."""

import pytest

from repro.metrics.billing import PricingPolicy, bill_traffic
from repro.network.traffic_monitor import TrafficMonitor
from tests.conftest import make_context


def test_intra_dc_traffic_is_free():
    monitor = TrafficMonitor()
    monitor.record("us-east-1", "us-east-1", 5e9)
    report = bill_traffic(monitor)
    assert report.total_dollars == 0.0


def test_egress_priced_by_source_region():
    monitor = TrafficMonitor()
    monitor.record("us-east-1", "eu-central-1", 10e9)   # $0.02/GB
    monitor.record("sa-east-1", "us-east-1", 10e9)      # $0.16/GB
    report = bill_traffic(monitor)
    assert report.by_source["us-east-1"] == pytest.approx(0.20)
    assert report.by_source["sa-east-1"] == pytest.approx(1.60)
    assert report.total_dollars == pytest.approx(1.80)


def test_unknown_region_uses_default_price():
    monitor = TrafficMonitor()
    monitor.record("private-dc", "us-east-1", 1e9)
    report = bill_traffic(monitor, PricingPolicy(default_per_gb=0.10))
    assert report.total_dollars == pytest.approx(0.10)


def test_custom_policy():
    monitor = TrafficMonitor()
    monitor.record("a", "b", 2e9)
    policy = PricingPolicy(egress_per_gb={"a": 1.0})
    assert bill_traffic(monitor, policy).total_dollars == pytest.approx(2.0)


def test_empty_monitor_bills_zero():
    report = bill_traffic(TrafficMonitor())
    assert report.total_dollars == 0.0
    assert report.by_source == {}


def test_billing_a_real_run():
    context = make_context(push=True)
    context.write_input_file("/in", [[("a", "x" * 1000)], [("b", "y" * 1000)]])
    context.text_file("/in").reduce_by_key(lambda a, b: a + b).collect()
    report = bill_traffic(context.traffic, PricingPolicy(default_per_gb=0.05))
    assert report.total_dollars >= 0.0
    if context.traffic.cross_dc_bytes > 0:
        assert report.total_dollars > 0.0
    context.shutdown()
