"""The component index under the vector drive: equivalence and scoping.

The max-min allocation is unique, so the component-scoped vector drive
must produce rates *identical* (within float tolerance) to a
from-scratch :func:`max_min_fair_rates` solve at every instant, for
arbitrary arrival/departure/jitter sequences — that equivalence is the
safety net under the whole perf optimisation and is property-tested
here.  The scoping tests then pin the perf contract itself: events in
one connected component must not touch flows in another, and jitter on
idle links must not solve anything.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fabric import NetworkFabric
from repro.network.fair_share import max_min_fair_rates, verify_allocation
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator

HOSTS = ["A0", "A1", "B0", "B1", "C0", "C1"]
WAN_PAIRS = [("A", "B"), ("A", "C"), ("B", "C")]


def build_mesh(drive="vector"):
    """Three fully-meshed DCs, two hosts each (one shared component)."""
    sim = Simulator()
    topo = Topology()
    for dc in ("A", "B", "C"):
        topo.add_datacenter(dc)
        for index in range(2):
            topo.add_host(
                f"{dc}{index}", dc, access_bandwidth=GBPS, access_latency=0.0
            )
    for src, dst in WAN_PAIRS:
        topo.connect_datacenters(src, dst, 100 * MBPS, latency=0.0)
    fabric = NetworkFabric(sim, topo, drive=drive)
    return sim, topo, fabric


def build_pairs(num_pairs=3, drive="vector"):
    """Disjoint DC pairs (P0a-P0b, P1a-P1b, ...): one component each."""
    sim = Simulator()
    topo = Topology()
    for pair in range(num_pairs):
        for side in ("a", "b"):
            dc = f"P{pair}{side}"
            topo.add_datacenter(dc)
            topo.add_host(
                f"{dc}0", dc, access_bandwidth=GBPS, access_latency=0.0
            )
            topo.add_host(
                f"{dc}1", dc, access_bandwidth=GBPS, access_latency=0.0
            )
        topo.connect_datacenters(
            f"P{pair}a", f"P{pair}b", 100 * MBPS, latency=0.0
        )
    fabric = NetworkFabric(sim, topo, drive=drive)
    return sim, topo, fabric


def spawn_transfers(sim, fabric, transfers, finished=None):
    def one(sim, index, src, dst, size, start):
        if start > 0:
            yield sim.timeout(start)
        yield fabric.transfer(src, dst, size)
        if finished is not None:
            finished[index] = sim.now

    for index, (src, dst, size, start) in enumerate(transfers):
        sim.spawn(one(sim, index, src, dst, size, start))


def assert_rates_match_scratch_solve(fabric):
    """The drive's current rates equal a from-scratch global solve."""
    routes, capacities = fabric.solver_inputs()
    if not routes:
        return
    expected = max_min_fair_rates(routes, capacities)
    actual = {flow.flow_id: flow.rate for flow in fabric.active_flows()}
    for flow_id, rate in expected.items():
        assert actual[flow_id] == pytest.approx(rate, rel=1e-9), (
            f"flow {flow_id}: vector {actual[flow_id]} != scratch {rate}"
        )
    verify_allocation(routes, capacities, actual, tolerance=1e-6)


transfers_strategy = st.lists(
    st.tuples(
        st.sampled_from(HOSTS),
        st.sampled_from(HOSTS),
        st.floats(1.0, 50e6),
        st.floats(0.0, 5.0),
    ),
    min_size=1,
    max_size=20,
)

jitter_strategy = st.lists(
    st.tuples(
        st.sampled_from(range(len(WAN_PAIRS) * 2)),  # directed link index
        st.floats(0.3, 3.0),  # capacity scale factor
        st.floats(0.1, 6.0),  # when
    ),
    max_size=8,
)


def _directed_wan_links(topo):
    links = []
    for src, dst in WAN_PAIRS:
        links.append(topo.wan_link(src, dst))
        links.append(topo.wan_link(dst, src))
    return links


def _apply_ops(sim, topo, fabric, transfers, jitters):
    """Drive a full arrival/jitter schedule; yield settled checkpoints."""
    spawn_transfers(sim, fabric, transfers)
    links = _directed_wan_links(topo)
    events = sorted({start for _s, _d, _sz, start in transfers})
    jitters = sorted(jitters, key=lambda op: op[2])
    checkpoints = sorted(
        {t + 0.0371 for t in events} | {when + 0.0371 for _l, _f, when in jitters}
    )
    jitter_index = 0
    for checkpoint in checkpoints:
        while (
            jitter_index < len(jitters)
            and jitters[jitter_index][2] <= checkpoint
        ):
            link_index, factor, when = jitters[jitter_index]
            jitter_index += 1
            if when > sim.now:
                sim.run(until=when)
            link = links[link_index]
            link.set_capacity(
                min(300 * MBPS, max(10 * MBPS, link.capacity * factor))
            )
            fabric.notify_capacity_change(changed_links=[link])
        sim.run(until=checkpoint)
        # Settle any same-instant recompute trigger before observing.
        sim.run(until=checkpoint)
        yield checkpoint
    sim.run()


@given(transfers_strategy, jitter_strategy)
@settings(max_examples=40, deadline=None)
def test_vector_rates_equal_scratch_solve(transfers, jitters):
    """After arbitrary arrival/departure/jitter sequences the drive's
    rates are the unique max-min allocation (checked against a global
    from-scratch solve plus verify_allocation)."""
    sim, topo, fabric = build_mesh()
    for _checkpoint in _apply_ops(sim, topo, fabric, transfers, jitters):
        assert_rates_match_scratch_solve(fabric)
    assert fabric.active_flow_count == 0
    assert len(fabric.completed_flows) == len(transfers)


@given(transfers_strategy, jitter_strategy)
@settings(max_examples=25, deadline=None)
def test_vector_completions_match_global_path(transfers, jitters):
    """Completion times are identical between the vector drive and the
    global re-solve-everything reference."""
    finish = {}
    for drive in ("vector", "global"):
        sim, topo, fabric = build_mesh(drive=drive)
        finished = {}
        spawn_transfers(sim, fabric, transfers, finished)
        links = _directed_wan_links(topo)

        def jitter_proc(sim, links=links, fabric=fabric):
            for link_index, factor, when in sorted(
                jitters, key=lambda op: op[2]
            ):
                if when > sim.now:
                    yield sim.timeout(when - sim.now)
                link = links[link_index]
                link.set_capacity(
                    min(300 * MBPS, max(10 * MBPS, link.capacity * factor))
                )
                fabric.notify_capacity_change(changed_links=[link])

        sim.spawn(jitter_proc(sim))
        sim.run()
        finish[drive] = finished
    assert finish["vector"].keys() == finish["global"].keys()
    for index in finish["vector"]:
        assert finish["vector"][index] == pytest.approx(
            finish["global"][index], rel=1e-6, abs=1e-9
        )


def test_disjoint_component_not_touched_by_arrival():
    """A flow arriving on pair 1 must not re-solve pair 0's component."""
    sim, _topo, fabric = build_pairs(num_pairs=2)
    fabric.transfer("P0a0", "P0b0", 50e6)
    sim.run(until=0.1)
    touched_before = fabric.perf.flows_touched
    fabric.transfer("P1a0", "P1b0", 50e6)
    sim.run(until=0.2)
    # Only the new flow's (singleton) component was solved.
    assert fabric.perf.flows_touched == touched_before + 1


def test_lan_flow_does_not_resolve_wan_component():
    """An intra-DC flow's component excludes the WAN and its flows."""
    sim, _topo, fabric = build_pairs(num_pairs=1)
    fabric.transfer("P0a0", "P0b0", 50e6)  # WAN flow
    sim.run(until=0.1)
    touched_before = fabric.perf.flows_touched
    fabric.transfer("P0a1", "P0a0", 50e6)  # LAN-only, distinct hosts
    sim.run(until=0.2)
    assert fabric.perf.flows_touched == touched_before + 1


def test_jitter_on_idle_link_is_noop():
    """Perturbing a link with zero active flows must not solve anything."""
    sim, topo, fabric = build_pairs(num_pairs=2)
    fabric.transfer("P0a0", "P0b0", 50e6)
    sim.run(until=0.1)
    solves_before = fabric.perf.solves
    noops_before = fabric.perf.jitter_noops
    idle = topo.wan_link("P1a", "P1b")
    idle.set_capacity(50 * MBPS)
    fabric.notify_capacity_change(changed_links=[idle])
    sim.run(until=0.2)
    assert fabric.perf.solves == solves_before
    assert fabric.perf.jitter_noops == noops_before + 1


def test_jitter_on_busy_link_rescopes_to_its_component():
    sim, topo, fabric = build_pairs(num_pairs=2)
    fabric.transfer("P0a0", "P0b0", 50e6)
    fabric.transfer("P1a0", "P1b0", 50e6)
    sim.run(until=0.1)
    touched_before = fabric.perf.flows_touched
    busy = topo.wan_link("P0a", "P0b")
    busy.set_capacity(50 * MBPS)
    fabric.notify_capacity_change(changed_links=[busy])
    sim.run(until=0.2)
    assert fabric.perf.flows_touched == touched_before + 1  # pair 0 only


def test_same_instant_capacity_changes_coalesce_into_one_solve():
    sim, topo, fabric = build_pairs(num_pairs=1)
    fabric.transfer("P0a0", "P0b0", 50e6)
    fabric.transfer("P0a1", "P0b1", 50e6)
    sim.run(until=0.1)
    solves_before = fabric.perf.solves
    forward = topo.wan_link("P0a", "P0b")
    forward.set_capacity(60 * MBPS)
    fabric.notify_capacity_change(changed_links=[forward])
    fabric.notify_capacity_change(changed_links=[forward])
    sim.run(until=0.2)
    assert fabric.perf.solves == solves_before + 1


def test_capacity_change_must_name_its_links():
    """Every notification is scoped: the unscoped legacy call is gone,
    and naming the perturbed link re-solves to the correct rates."""
    sim, topo, fabric = build_pairs(num_pairs=1)

    def scenario(sim):
        done = fabric.transfer("P0a0", "P0b0", 25_000_000)  # 2 s at 12.5 MB/s
        yield sim.timeout(1.0)
        wan = topo.wan_link("P0a", "P0b")
        wan.set_capacity(200 * MBPS)
        with pytest.raises(TypeError):
            fabric.notify_capacity_change()
        fabric.notify_capacity_change(changed_links=[wan])
        yield done
        return sim.now

    assert sim.run_process(scenario(sim)) == pytest.approx(1.5)


def test_current_rate_is_constant_time_lookup():
    sim, _topo, fabric = build_pairs(num_pairs=1)
    event = fabric.transfer("P0a0", "P0b0", 25_000_000)
    sim.run(until=0.5)
    assert fabric.current_rate(event) == pytest.approx(100 * MBPS)
    assert event in fabric._flow_by_event  # O(1) back-pointer, no scan
    sim.run()
    assert fabric.current_rate(event) == 0.0
    assert event not in fabric._flow_by_event


def test_zero_byte_transfer_not_recorded_in_traffic_matrix():
    sim, _topo, fabric = build_pairs(num_pairs=1)
    fabric.transfer("P0a0", "P0b0", 0.0, tag="empty")
    fabric.transfer("P0a0", "P0a0", 0.0, tag="same-host")
    sim.run()
    assert fabric.monitor.flow_count == 0
    assert fabric.monitor.total_bytes == 0.0
    assert not fabric.monitor.by_pair
    # The flows themselves still completed (control-plane events fire).
    assert len(fabric.completed_flows) == 2


def test_perf_snapshot_includes_route_cache_stats():
    sim, _topo, fabric = build_pairs(num_pairs=1)
    fabric.transfer("P0a0", "P0b0", 1e6)
    fabric.transfer("P0a0", "P0b0", 1e6)  # same pair: cached route
    sim.run()
    snapshot = fabric.perf_snapshot()
    assert snapshot["route_cache_misses"] >= 1.0
    assert snapshot["route_cache_hits"] >= 1.0
    assert snapshot["solves"] >= 1.0
    assert snapshot["peak_active_flows"] == 2.0
