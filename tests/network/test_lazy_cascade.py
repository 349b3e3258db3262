"""The resumable ``GeneralPlan`` vs. the eager schedule it replaced.

A general plan solves its component's departures a doubling batch at a
time, as the clock reaches them, instead of all of them up front.  That
is only a saving if nothing simulated moves, so these tests pin:

* every prefix of a lazily extended plan equals the eager reference
  (``reference_cascade.py``) float for float — bounds, rate rows,
  departs and the replays built on them;
* a perturbation landing exactly on the last armed departure instant
  reads what the eager plan would have read (the one-segment reserve);
* the cost cannot grow back: on a mesh with mid-run capacity changes
  the fills stay within twice the segments that fired.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.network.cascade as cascade_module
import repro.network.fabric as fabric_module
from repro.network.cascade import GeneralPlan
from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import Simulator

from tests.network.reference_cascade import EagerGeneralPlan, eager_plan
from tests.network.test_vector_drive import _build


# ----------------------------------------------------------------------
# (a) every prefix of the lazy plan is the eager schedule
# ----------------------------------------------------------------------
@st.composite
def components(draw):
    num_links = draw(st.integers(1, 6))
    num_flows = draw(st.integers(1, 14))
    routes = [
        np.asarray(
            # Duplicates allowed: a route may cross a link twice.
            draw(st.lists(st.integers(0, num_links - 1), min_size=1, max_size=4)),
            dtype=np.intp,
        )
        for _ in range(num_flows)
    ]
    capacities = np.asarray(
        draw(
            st.lists(
                st.floats(1e5, 1e9), min_size=num_links, max_size=num_links
            )
        )
    )
    # A small pool of sizes makes simultaneous departures (ties) common.
    sizes = draw(
        st.lists(
            st.sampled_from([1e6, 2e6, 2e6, 5e6, 7.5e6, 3.3e7]),
            min_size=num_flows,
            max_size=num_flows,
        )
    )
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(
                st.lists(
                    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                    min_size=num_flows,
                    max_size=num_flows,
                )
            )
        )
    base = draw(st.sampled_from([0.0, 12.5, 1234.56789]))
    return base, np.asarray(sizes), routes, capacities, weights


def _assert_prefix_equal(lazy, eager):
    solved = len(lazy.departs)
    assert lazy.bounds == eager.bounds[: solved + 1].tolist()
    assert lazy.departs == eager.departs[:solved]
    for k in range(solved):
        assert np.array_equal(lazy.rates[k], eager.rates[k])
    assert lazy.depart_times() == eager.depart_times()[: lazy.horizon]
    # Replays: on every solved boundary and inside every solved segment.
    flows = range(len(lazy.flow_ids))
    for k in range(solved):
        left, right = eager.bounds[k], eager.bounds[k + 1]
        probes = [lazy.base + left, lazy.base + (left + right) / 2]
        if k + 1 < solved:
            probes.append(lazy.base + right)
        for now in probes:
            remaining, rates = lazy.state_at(now)
            for pos in flows:
                expected = eager.remaining_at(pos, now)
                assert lazy.remaining_at(pos, now) == expected
                assert remaining[pos] == expected
                assert lazy.rate_at(pos, now) == eager.rate_at(pos, now)
                assert rates[pos] == eager.rate_at(pos, now)


@settings(max_examples=150, deadline=None)
@given(components())
def test_lazy_plan_prefixes_equal_eager_schedule(component):
    base, sizes, routes, capacities, weights = component
    eager = EagerGeneralPlan(base, sizes, routes, capacities, weights)
    lazy = GeneralPlan(
        list(range(len(routes))), base, sizes, routes, capacities, weights
    )
    total = len(eager.departs)
    armed = 0
    batch = 1
    while True:
        # One more batch to arm plus one segment in reserve — or the
        # schedule ran out, and then all of it may be armed.
        solved = min(total, armed + batch + 1)
        assert len(lazy.departs) == solved
        assert lazy.horizon == (total if solved == total else solved - 1)
        _assert_prefix_equal(lazy, eager)
        if lazy.horizon == total:
            break
        armed = lazy.horizon
        batch *= 2
        assert lazy.extend() == len(lazy.departs) - solved
    assert lazy.extend() == 0
    assert [lazy.initial_rate(pos) for pos in range(len(routes))] == (
        eager.rates[0].tolist()
    )


# ----------------------------------------------------------------------
# (b) a perturbation exactly on the last armed departure instant
# ----------------------------------------------------------------------
# Three routes, one component (A-B share a1's uplink, B-C the A->C
# WAN), five distinct departure instants: a GeneralPlan whose first
# horizon is its first departure.
_FLOWS = (
    ("a1", "b1", 9e6),
    ("a1", "c1", 2e6),
    ("a2", "c1", 6e6),
    ("a1", "c1", 4e6),
    ("a2", "c1", 11e6),
)


@pytest.fixture
def recorded_plans(monkeypatch):
    """Every ``build_plan`` call the fabric makes: (args, kwargs, plan)."""
    recorded = []
    build = fabric_module.build_plan

    def recording_build(*args, **kwargs):
        plan = build(*args, **kwargs)
        recorded.append((args, kwargs, plan))
        return plan

    monkeypatch.setattr(fabric_module, "build_plan", recording_build)
    return recorded


def _run_with_action_at(drive, at, action):
    """Start ``_FLOWS`` at t=0 and call ``action(topo, fabric, events)``
    at ``at`` (``None``: never).  The action is registered before the
    run, so at ``at`` it precedes any departure timer armed later for
    the same instant.  Returns {flow index: completion time}."""
    sim, topo, fabric = _build(drive)
    events = [fabric.transfer(src, dst, size) for src, dst, size in _FLOWS]
    finals = {}
    for index, event in enumerate(events):
        event.add_callback(
            lambda _e, index=index: finals.setdefault(index, sim.now)
        )
    if at is not None:
        sim.call_at(at, lambda: action(topo, fabric, events))
    sim.run()
    assert fabric.active_flow_count == 0
    return finals


def _assert_finals_match(got, oracle):
    assert got.keys() == oracle.keys()
    for index, expected in oracle.items():
        assert got[index] == pytest.approx(expected, rel=1e-9)


def test_capacity_change_on_last_armed_departure_instant(recorded_plans):
    observed = {}

    def observe_then_squeeze(topo, fabric, _events):
        observed.update(
            (flow.flow_id, (flow.remaining, flow.rate))
            for flow in fabric.active_flows()
        )
        fabric.set_link_capacity(topo.wan_link("A", "C"), 35 * MBPS)

    _run_with_action_at("vector", None, observe_then_squeeze)
    args, kwargs, first = recorded_plans[0]
    assert isinstance(first, GeneralPlan)
    eager = eager_plan(*args, **kwargs)
    assert len(eager.departs) == len(_FLOWS)  # five distinct instants
    # The first plan armed one timer; its instant is the boundary.
    boundary = eager.depart_times()[0]
    assert first.depart_times(0)[:1] == [boundary]

    # Read every member *at* the boundary, before its timer has fired:
    # the replay lands in the reserve segment, exactly where the eager
    # schedule's replay does.
    recorded_plans.clear()
    got = _run_with_action_at("vector", boundary, observe_then_squeeze)
    plan = recorded_plans[0][2]
    assert len(plan.timers) > 1  # the boundary's timer fired and extended
    assert sorted(observed) == sorted(plan.flow_ids)
    for flow_id, (remaining, rate) in observed.items():
        pos = plan.pos_of[flow_id]
        assert remaining == eager.remaining_at(pos, boundary)
        assert rate == eager.rate_at(pos, boundary)
    assert min(remaining for remaining, _rate in observed.values()) == 0.0
    _assert_finals_match(
        got, _run_with_action_at("global", boundary, observe_then_squeeze)
    )


def test_cancel_on_last_armed_departure_instant():
    """``cancel`` replays synchronously — on the boundary, before the
    boundary's own timer — so it is the read the reserve exists for."""
    refunds = []

    def cancel_first(_topo, fabric, events):
        refunds.append(fabric.cancel(events[0]))

    boundary = min(_run_with_action_at("vector", None, cancel_first).values())
    got = _run_with_action_at("vector", boundary, cancel_first)
    oracle = _run_with_action_at("global", boundary, cancel_first)
    assert 0 not in got and 0 not in oracle
    assert refunds[0] == pytest.approx(refunds[1], rel=1e-9)
    _assert_finals_match(got, oracle)


# ----------------------------------------------------------------------
# (c) the eager cost cannot grow back
# ----------------------------------------------------------------------
def test_fills_bounded_by_departures_on_a_churning_mesh(monkeypatch):
    """6-DC full mesh, all-to-all, eight mid-run WAN capacity changes:
    every change throws the component's plan away, so an eager planner
    pays one fill per *future* departure each time (thousands); the
    resumable one at most two per segment that fired plus two per plan."""
    fills = []
    fill = cascade_module.progressive_fill

    def counting_fill(*args, **kwargs):
        fills.append(1)
        return fill(*args, **kwargs)

    monkeypatch.setattr(cascade_module, "progressive_fill", counting_fill)
    rng = random.Random(15)
    sim = Simulator()
    topo = Topology()
    datacenters = [f"M{index}" for index in range(6)]
    hosts = []
    for dc in datacenters:
        topo.add_datacenter(dc)
        for host in range(2):
            hosts.append(f"{dc}-h{host}")
            topo.add_host(
                hosts[-1], dc, access_bandwidth=GBPS, access_latency=0.0
            )
    for index, src in enumerate(datacenters):
        for dst in datacenters[index + 1 :]:
            topo.connect_datacenters(src, dst, 100 * MBPS, latency=0.0)
    fabric = NetworkFabric(sim, topo)
    flows = 0
    for src in hosts:
        for dst in hosts:
            if src.split("-")[0] != dst.split("-")[0]:
                fabric.transfer(src, dst, rng.uniform(1e6, 30e6))
                flows += 1
    for _ in range(8):
        src, dst = rng.sample(datacenters, 2)
        link = topo.wan_link(src, dst)
        capacity = 100 * MBPS * rng.uniform(0.4, 1.6)
        sim.call_at(
            rng.uniform(0.3, 3.0),
            lambda link=link, capacity=capacity: fabric.set_link_capacity(
                link, capacity
            ),
        )
    sim.run()
    perf = fabric.perf
    assert len(fabric.completed_flows) == flows == 120
    assert perf.solves >= 9  # the burst, then one re-plan per change
    assert 0 < perf.plan_segments_fired <= flows
    # General plans only report fills as planned segments; uniform
    # plans (late, single-pair leftovers) add theirs without filling.
    assert len(fills) <= perf.plan_segments_planned
    assert len(fills) <= 2 * (perf.plan_segments_fired + perf.solves)
    assert len(fills) <= 2 * (flows + perf.solves)
