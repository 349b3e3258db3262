"""The vector (cascade-plan) drive vs. the global oracle drive.

The cascade drive precomputes departure schedules and fires them
as bare timers — zero re-solves between perturbations.  These tests pin
the hard part: a perturbation landing *mid-plan* (arrival, cancel,
capacity change) must replay the affected plans to recover exact
remaining bytes, and every completion time must match the global
re-solve-everything drive to 1e-9 relative.  Also covered: plan
invalidation after a component has *split* (a plan member unreachable
from the perturbed link must still be re-planned).
"""

import pytest

from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator

DRIVES = ("vector", "global")


def _build(drive):
    sim = Simulator()
    topo = Topology()
    for dc in ("A", "B", "C"):
        topo.add_datacenter(dc)
    for host, dc in (("a1", "A"), ("a2", "A"), ("b1", "B"), ("c1", "C")):
        topo.add_host(host, dc, access_bandwidth=GBPS, access_latency=0.0)
    topo.connect_datacenters("A", "B", 100 * MBPS, latency=0.0)
    topo.connect_datacenters("A", "C", 100 * MBPS, latency=0.0)
    fabric = NetworkFabric(sim, topo, drive=drive)
    return sim, topo, fabric


def _run_scenario(scenario, drive):
    """Run ``scenario`` under ``drive``; returns {label: completion time}."""
    sim, topo, fabric = _build(drive)
    completions = {}

    def track(label, event):
        event.add_callback(
            lambda _e, label=label: completions.setdefault(label, sim.now)
        )

    scenario(sim, topo, fabric, track)
    sim.run()
    assert fabric.active_flow_count == 0
    return completions


def _assert_equivalent(scenario):
    oracle = _run_scenario(scenario, "global")
    assert oracle  # scenario must complete something
    got = _run_scenario(scenario, "vector")
    assert got.keys() == oracle.keys()
    for label, expected in oracle.items():
        assert got[label] == pytest.approx(expected, rel=1e-9), (
            f"vector: {label} finished at {got[label]}, "
            f"global says {expected}"
        )


# ----------------------------------------------------------------------
# Equivalence under perturbations landing mid-plan
# ----------------------------------------------------------------------
def test_burst_churn_matches_global():
    """A same-route burst (the UniformPlan path): 8 distinct sizes
    cascading out of one 100 Mbps WAN link."""

    def scenario(sim, topo, fabric, track):
        for index in range(8):
            track(index, fabric.transfer("a1", "b1", 1e6 * (index + 1)))

    _assert_equivalent(scenario)


def test_arrival_mid_plan():
    """A late arrival must invalidate the in-flight plan and re-plan
    with the survivors' exact remaining bytes."""

    def scenario(sim, topo, fabric, track):
        for index in range(4):
            track(index, fabric.transfer("a1", "b1", 4e6 * (index + 1)))

        def late(sim):
            yield sim.timeout(0.25)
            track("late", fabric.transfer("a1", "b1", 6e6))
            yield sim.timeout(0.10)
            track("later", fabric.transfer("a2", "b1", 2e6))

        sim.spawn(late(sim))

    _assert_equivalent(scenario)


def test_cancel_mid_plan():
    """Cancelling a plan member mid-flight: the refund must equal the
    global drive's, and the survivors speed up identically."""

    def refunds(drive):
        sim, topo, fabric = _build(drive)
        completions = {}
        events = [
            fabric.transfer("a1", "b1", 8e6 * (index + 1)) for index in range(3)
        ]
        for index, event in enumerate(events[1:], start=1):
            event.add_callback(
                lambda _e, i=index: completions.setdefault(i, sim.now)
            )
        refund = {}

        def cancel(sim):
            yield sim.timeout(0.2)
            refund["bytes"] = fabric.cancel(events[0])

        sim.spawn(cancel(sim))
        sim.run()
        assert fabric.active_flow_count == 0
        return refund["bytes"], completions

    oracle_refund, oracle_done = refunds("global")
    # 3 flows share 100 Mbps for 0.2 s -> flow 0 moved ~0.83 MB of 8 MB.
    assert 0 < oracle_refund < 8e6
    refund, done = refunds("vector")
    assert refund == pytest.approx(oracle_refund, rel=1e-9)
    for label, expected in oracle_done.items():
        assert done[label] == pytest.approx(expected, rel=1e-9)


def test_capacity_change_mid_plan():
    """A WAN capacity drop mid-cascade reschedules every member."""

    def scenario(sim, topo, fabric, track):
        for index in range(5):
            track(index, fabric.transfer("a1", "b1", 3e6 * (index + 1)))
        wan = next(l for l in topo.wan_links() if "A->B" in l.name)

        def squeeze(sim):
            yield sim.timeout(0.3)
            fabric.set_link_capacity(wan, 40 * MBPS)
            yield sim.timeout(0.4)
            fabric.set_link_capacity(wan, 150 * MBPS)

        sim.spawn(squeeze(sim))

    _assert_equivalent(scenario)


def test_replan_reaches_split_plan_members():
    """Regression for plan invalidation after a component split.

    Flows A (a1->b1), B (a1->c1), C (a2->c1) form one component: A-B
    share ``a1:up``, B-C share the A->C WAN.  B drains first, splitting
    the component.  A capacity change on the A->B WAN then touches only
    A — but A's (dead) plan still spans C, so the worklist must re-plan
    C too, or C would coast on a cancelled schedule forever.
    """

    def scenario(sim, topo, fabric, track):
        track("A", fabric.transfer("a1", "b1", 20e6))
        track("B", fabric.transfer("a1", "c1", 1e6))
        track("C", fabric.transfer("a2", "c1", 20e6))
        wan_ab = next(l for l in topo.wan_links() if "A->B" in l.name)

        def squeeze(sim):
            yield sim.timeout(0.5)  # well after B has drained
            fabric.set_link_capacity(wan_ab, 25 * MBPS)

        sim.spawn(squeeze(sim))

    _assert_equivalent(scenario)


# ----------------------------------------------------------------------
# Plan bookkeeping
# ----------------------------------------------------------------------
def test_vector_drive_departures_need_no_solves():
    """The tentpole claim: a burst admitted at one instant costs exactly
    one solve; all 12 departures ride precomputed timers."""
    sim, topo, fabric = _build("vector")
    for index in range(12):
        fabric.transfer("a1", "b1", 1e6 * (index + 1))
    sim.run()
    assert fabric.active_flow_count == 0
    assert fabric.perf.solves == 1
    assert fabric.perf.flows_touched == 12
    # Nothing perturbed the plan, so every planned segment fired.
    assert fabric.perf.plan_segments_planned == 12
    assert fabric.perf.plan_segments_fired == 12


def test_drive_flag_resolution():
    sim, topo, fabric = _build("vector")
    assert fabric.drive == "vector"
    assert NetworkFabric(Simulator(), topo).drive == "vector"
    for drive in DRIVES:
        assert NetworkFabric(Simulator(), topo, drive=drive).drive == drive
    with pytest.raises(TypeError):
        NetworkFabric(Simulator(), topo, incremental=True)
    for retired in ("warp", "incremental"):
        with pytest.raises(ValueError):
            NetworkFabric(Simulator(), topo, drive=retired)


def test_fabric_has_two_drives_not_three():
    """Replace, don't fork: the retired incremental drive's event loop
    (lazy charging, deadline heap, unscoped dirty-all refresh) must not
    grow back in the fabric, and the component index solves nothing."""
    from pathlib import Path

    import repro.network.fabric as fabric_module
    from repro.network.incremental import IncrementalFairShare

    source = Path(fabric_module.__file__).read_text()
    for token in ("heapq", "_deadlines", "_dirty_all", "epoch"):
        assert token not in source, token
    # The only lowercase mention left is the component index's import.
    assert [line for line in source.splitlines() if "incremental" in line] == [
        "from repro.network.incremental import IncrementalFairShare"
    ]
    assert not hasattr(IncrementalFairShare, "solve")
    assert not hasattr(IncrementalFairShare, "rate")
