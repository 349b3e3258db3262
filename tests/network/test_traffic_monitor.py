"""TrafficMonitor aggregation semantics."""

import pytest

from repro.network.traffic_monitor import TrafficMonitor


def test_intra_dc_traffic_not_counted_as_cross():
    monitor = TrafficMonitor()
    monitor.record("a", "a", 100.0, tag="x")
    assert monitor.total_bytes == 100.0
    assert monitor.cross_dc_bytes == 0.0
    assert monitor.by_tag["x"] == 100.0
    assert monitor.cross_dc_by_tag.get("x", 0.0) == 0.0


def test_cross_dc_traffic_counted_by_pair_and_tag():
    monitor = TrafficMonitor()
    monitor.record("a", "b", 10.0, tag="shuffle")
    monitor.record("a", "b", 5.0, tag="shuffle")
    monitor.record("b", "a", 7.0, tag="input")
    assert monitor.cross_dc_bytes == pytest.approx(22.0)
    assert monitor.by_pair[("a", "b")] == pytest.approx(15.0)
    assert monitor.by_pair[("b", "a")] == pytest.approx(7.0)
    assert monitor.cross_dc_by_tag["shuffle"] == pytest.approx(15.0)


def test_megabyte_conversion():
    monitor = TrafficMonitor()
    monitor.record("a", "b", 2_500_000.0)
    assert monitor.cross_dc_megabytes == pytest.approx(2.5)


def test_untagged_flows_skip_tag_maps():
    monitor = TrafficMonitor()
    monitor.record("a", "b", 10.0, tag="")
    assert monitor.by_tag == {}