"""Property-based checks of the flow fabric.

Conservation laws that must hold for arbitrary flow populations:
* every transfer completes and is accounted exactly once;
* no flow finishes faster than its solo bottleneck time;
* all flows drain by the time the work-conserving bound elapses.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator


def ideal_transfer_time(
    topology: Topology, src_host: str, dst_host: str, size_bytes: float
) -> float:
    """Lower-bound transfer time assuming the flow is alone on its route."""
    route = topology.route(src_host, dst_host)
    latency = sum(link.latency for link in route)
    if not route or size_bytes <= 0:
        return latency
    return latency + size_bytes / min(link.capacity for link in route)


def build(num_hosts_per_dc=2):
    sim = Simulator()
    topo = Topology()
    for dc in ("A", "B", "C"):
        topo.add_datacenter(dc)
        for index in range(num_hosts_per_dc):
            topo.add_host(
                f"{dc}{index}", dc,
                access_bandwidth=GBPS, access_latency=0.0,
            )
    for src, dst in (("A", "B"), ("A", "C"), ("B", "C")):
        topo.connect_datacenters(src, dst, 100 * MBPS, latency=0.0)
    return sim, topo, NetworkFabric(sim, topo)


transfers_strategy = st.lists(
    st.tuples(
        st.sampled_from(["A0", "A1", "B0", "B1", "C0", "C1"]),
        st.sampled_from(["A0", "A1", "B0", "B1", "C0", "C1"]),
        st.floats(1.0, 50e6),
        st.floats(0.0, 5.0),
    ),
    min_size=1,
    max_size=20,
)


@given(transfers_strategy)
@settings(max_examples=50, deadline=None)
def test_every_transfer_completes_and_is_accounted(transfers):
    sim, _topo, fabric = build()
    completions = []

    def one(sim, src, dst, size, start):
        if start > 0:
            yield sim.timeout(start)
        flow = yield fabric.transfer(src, dst, size)
        completions.append(flow)

    for src, dst, size, start in transfers:
        sim.spawn(one(sim, src, dst, size, start))
    sim.run()
    assert len(completions) == len(transfers)
    assert fabric.active_flow_count == 0
    total_requested = sum(size for _s, _d, size, _t in transfers)
    assert fabric.monitor.total_bytes == pytest.approx(total_requested)


@given(transfers_strategy)
@settings(max_examples=50, deadline=None)
def test_no_flow_beats_its_solo_bottleneck(transfers):
    sim, topo, fabric = build()
    durations = {}

    def one(sim, index, src, dst, size, start):
        if start > 0:
            yield sim.timeout(start)
        begun = sim.now
        yield fabric.transfer(src, dst, size)
        durations[index] = (sim.now - begun, src, dst, size)

    for index, (src, dst, size, start) in enumerate(transfers):
        sim.spawn(one(sim, index, src, dst, size, start))
    sim.run()
    for duration, src, dst, size in durations.values():
        floor = ideal_transfer_time(topo, src, dst, size)
        assert duration >= floor * (1 - 1e-6)


@given(transfers_strategy)
@settings(max_examples=30, deadline=None)
def test_work_conserving_upper_bound(transfers):
    """All flows drain within sum(sizes)/slowest-bottleneck after the
    last arrival — a loose but absolute work-conservation bound."""
    sim, topo, fabric = build()

    def one(sim, src, dst, size, start):
        if start > 0:
            yield sim.timeout(start)
        yield fabric.transfer(src, dst, size)

    for src, dst, size, start in transfers:
        sim.spawn(one(sim, src, dst, size, start))
    finished_at = sim.run()
    last_arrival = max(start for _s, _d, _size, start in transfers)
    slowest = 100 * MBPS  # the narrowest link anywhere in the topology
    cross_bytes = sum(size for _s, _d, size, _t in transfers)
    bound = last_arrival + cross_bytes / slowest + 1.0
    assert finished_at <= bound


@given(st.floats(1.0, 100e6), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_parallel_identical_flows_share_time_linearly(size, count):
    """n identical flows over one bottleneck take ~n x the solo time."""
    sim, topo, fabric = build()
    done = []

    def one(sim):
        yield fabric.transfer("A0", "B0", size)
        done.append(sim.now)

    for _ in range(count):
        sim.spawn(one(sim))
    sim.run()
    solo = ideal_transfer_time(topo, "A0", "B0", size)
    assert max(done) == pytest.approx(solo * count, rel=1e-3)
