"""NetworkFabric: flow timing under sharing and capacity changes."""

import pytest

from repro.network.fabric import NetworkFabric, ideal_transfer_time
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator


def build(latency=0.0, wan_mbps=100, gateways=None):
    sim = Simulator()
    topo = Topology()
    topo.add_datacenter("A")
    topo.add_datacenter("B")
    for name in ("a1", "a2"):
        topo.add_host(name, "A", access_bandwidth=GBPS, access_latency=0.0)
    for name in ("b1", "b2"):
        topo.add_host(name, "B", access_bandwidth=GBPS, access_latency=0.0)
    topo.connect_datacenters("A", "B", wan_mbps * MBPS, latency=latency)
    if gateways is not None:
        topo.set_gateway("A", gateways * MBPS)
        topo.set_gateway("B", gateways * MBPS)
    fabric = NetworkFabric(sim, topo)
    return sim, topo, fabric


def run_transfers(sim, fabric, transfers):
    """Start transfers (src, dst, size, start_time); return finish times."""
    finished = {}

    def one(sim, index, src, dst, size, start):
        if start > 0:
            yield sim.timeout(start)
        yield fabric.transfer(src, dst, size)
        finished[index] = sim.now

    for index, spec in enumerate(transfers):
        sim.spawn(one(sim, index, *spec))
    sim.run()
    return finished


def test_single_flow_duration_is_size_over_bottleneck():
    sim, _topo, fabric = build(wan_mbps=100)  # 12.5 MB/s
    finished = run_transfers(sim, fabric, [("a1", "b1", 12_500_000, 0.0)])
    assert finished[0] == pytest.approx(1.0)


def test_two_flows_share_wan_link_fairly():
    sim, _topo, fabric = build(wan_mbps=100)
    finished = run_transfers(
        sim, fabric,
        [("a1", "b1", 12_500_000, 0.0), ("a2", "b2", 12_500_000, 0.0)],
    )
    assert finished[0] == pytest.approx(2.0)
    assert finished[1] == pytest.approx(2.0)


def test_staggered_flows_speed_up_after_departure():
    """Flow 2 starts halfway through flow 1's solo run."""
    sim, _topo, fabric = build(wan_mbps=100)
    finished = run_transfers(
        sim, fabric,
        [("a1", "b1", 12_500_000, 0.0), ("a2", "b2", 12_500_000, 0.5)],
    )
    # Flow 1: solo 0.5s (6.25MB), then shares; both drain together.
    assert finished[0] == pytest.approx(1.5, rel=1e-3)
    assert finished[1] == pytest.approx(2.0, rel=1e-3)


def test_intra_dc_transfer_uses_full_access_bandwidth():
    sim, _topo, fabric = build()
    finished = run_transfers(sim, fabric, [("a1", "a2", 125_000_000, 0.0)])
    assert finished[0] == pytest.approx(1.0)  # 1 Gbps = 125 MB/s


def test_same_host_transfer_completes_immediately():
    sim, _topo, fabric = build()
    finished = run_transfers(sim, fabric, [("a1", "a1", 1e9, 0.0)])
    assert finished[0] == pytest.approx(0.0)


def test_zero_byte_transfer_costs_latency_only():
    sim, _topo, fabric = build(latency=0.2)
    finished = run_transfers(sim, fabric, [("a1", "b1", 0.0, 0.0)])
    assert finished[0] == pytest.approx(0.2)


def test_latency_added_to_transfer_time():
    sim, _topo, fabric = build(latency=0.1, wan_mbps=100)
    finished = run_transfers(sim, fabric, [("a1", "b1", 12_500_000, 0.0)])
    assert finished[0] == pytest.approx(1.1)


def test_negative_size_rejected():
    sim, _topo, fabric = build()
    with pytest.raises(ValueError):
        fabric.transfer("a1", "b1", -1.0)


def test_gateway_limits_aggregate_ingress():
    """Two flows from different sources into one DC share its gateway."""
    sim, _topo, fabric = build(wan_mbps=1000, gateways=100)
    finished = run_transfers(
        sim, fabric,
        [("a1", "b1", 12_500_000, 0.0), ("a2", "b2", 12_500_000, 0.0)],
    )
    # Gateway 100 Mbps shared: 25 MB over 12.5 MB/s = 2 s.
    assert finished[0] == pytest.approx(2.0)


def test_capacity_change_midway_adjusts_rate():
    sim, topo, fabric = build(wan_mbps=100)

    def scenario(sim):
        done = fabric.transfer("a1", "b1", 25_000_000)  # 2s at 12.5MB/s
        yield sim.timeout(1.0)
        wan = topo.wan_link("A", "B")
        wan.set_capacity(200 * MBPS)
        fabric.notify_capacity_change([wan])
        yield done
        return sim.now

    # First second moves 12.5 MB; remaining 12.5 MB at 25 MB/s = 0.5 s.
    assert sim.run_process(scenario(sim)) == pytest.approx(1.5)


def test_traffic_recorded_per_datacenter_pair():
    sim, _topo, fabric = build()
    run_transfers(
        sim, fabric,
        [("a1", "b1", 1000.0, 0.0), ("a1", "a2", 500.0, 0.0)],
    )
    monitor = fabric.monitor
    assert monitor.total_bytes == pytest.approx(1500.0)
    assert monitor.cross_dc_bytes == pytest.approx(1000.0)
    assert monitor.by_pair[("A", "B")] == pytest.approx(1000.0)
    assert monitor.by_pair[("A", "A")] == pytest.approx(500.0)


def test_many_small_flows_complete():
    sim, _topo, fabric = build(wan_mbps=100)
    transfers = [("a1", "b1", 100_000.0, i * 0.01) for i in range(50)]
    finished = run_transfers(sim, fabric, transfers)
    assert len(finished) == 50
    assert fabric.active_flow_count == 0


def test_completed_flow_records_kept():
    sim, _topo, fabric = build()
    run_transfers(sim, fabric, [("a1", "b1", 1000.0, 0.0)])
    assert len(fabric.completed_flows) == 1
    flow = fabric.completed_flows[0]
    assert flow.src_host == "a1"
    assert flow.finished_at is not None


def test_ideal_transfer_time_lower_bound():
    _sim, topo, _fabric = build(latency=0.1, wan_mbps=100)
    ideal = ideal_transfer_time(topo, "a1", "b1", 12_500_000)
    assert ideal == pytest.approx(1.1)
