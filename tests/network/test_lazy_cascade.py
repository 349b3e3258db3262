"""The resumable plans vs. the eager schedule they replaced.

A non-uniform plan solves its component's departures a doubling batch at
a time, as the clock reaches them, instead of all of them up front — in
numpy (``GeneralPlan``) or, for small components, in plain floats
(``ScalarPlan``).  Either is only a saving if nothing simulated moves,
so these tests pin:

* the closed form of a same-route component in plain floats
  (``UniformPlan``) equals the array one it replaced
  (``reference_cascade.ArrayUniformPlan``) float for float at every
  size, and ``build_plan`` picks it for every such component;

* every prefix of a lazily extended plan of either shape equals the
  eager reference (``reference_cascade.py``) float for float — bounds,
  rate rows, cumulative bytes, departs and the replays built on them;
* a perturbation landing exactly on the last armed departure instant
  reads what the eager plan would have read (the one-segment reserve),
  whichever shape the plan has;
* the cost cannot grow back: on a mesh with mid-run capacity changes
  the fills stay within twice the segments that fired, and resumed
  fills compute fewer levels than fresh ones.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.network.cascade as cascade_module
import repro.network.cascade_vector as cascade_vector
import repro.network.fabric as fabric_module
import repro.network.vector_solver as vector_solver
from repro.analysis.sanitizer import sanitized
from repro.network.cascade import ScalarPlan, UniformPlan, build_plan
from repro.network.cascade_vector import GeneralPlan
from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, MBPS, Topology
from repro.network.vector_solver import LevelTrace
from repro.simulation import Simulator

from tests.network.reference_cascade import (
    ArrayUniformPlan,
    EagerGeneralPlan,
    eager_plan,
)
from tests.network.test_vector_drive import _build


# ----------------------------------------------------------------------
# (a) every prefix of the lazy plan is the eager schedule
# ----------------------------------------------------------------------
@st.composite
def components(draw):
    num_links = draw(st.integers(1, 6))
    num_flows = draw(st.integers(1, 40))
    routes = [
        # Duplicates allowed: a route may cross a link twice.
        draw(st.lists(st.integers(0, num_links - 1), min_size=1, max_size=4))
        for _ in range(num_flows)
    ]
    capacities = draw(
        st.lists(st.floats(1e5, 1e9), min_size=num_links, max_size=num_links)
    )
    # A small pool of sizes makes simultaneous departures (ties) common.
    sizes = draw(
        st.lists(
            st.sampled_from([1e6, 2e6, 2e6, 5e6, 7.5e6, 3.3e7]),
            min_size=num_flows,
            max_size=num_flows,
        )
    )
    # None, all 1.0 (must equal None), dyadic, and weights whose sums
    # round: the last is what catches a reordered accumulation.
    pool = draw(
        st.sampled_from(
            [None, [1.0], [0.5, 1.0, 2.0, 3.0], [0.1, 0.3, 1.0 / 3.0, 0.7, 2.9]]
        )
    )
    weights = None
    if pool is not None:
        weights = draw(
            st.lists(
                st.sampled_from(pool), min_size=num_flows, max_size=num_flows
            )
        )
    base = draw(st.sampled_from([0.0, 12.5, 1234.56789]))
    return base, sizes, routes, capacities, weights


def _both_shapes(component):
    """The eager oracle and the two resumable shapes of one component."""
    base, sizes, routes, capacities, weights = component
    flow_ids = list(range(len(routes)))
    arrays = (
        np.asarray(sizes),
        [np.asarray(route, dtype=np.intp) for route in routes],
        np.asarray(capacities),
        None if weights is None else np.asarray(weights),
    )
    eager = EagerGeneralPlan(base, *arrays)
    vector = GeneralPlan(flow_ids, base, *arrays)
    scalar = ScalarPlan(flow_ids, base, sizes, routes, capacities, weights)
    return eager, vector, scalar


def _assert_prefix_equal(lazies, eager, since=0):
    """Each lazy plan's solved prefix is the eager schedule's; rows and
    replays are compared from segment ``since`` on (the earlier ones
    were, before the last ``extend``)."""
    solved = len(lazies[0].departs)
    base = lazies[0].base
    for lazy in lazies:
        assert lazy.bounds == eager.bounds[: solved + 1].tolist()
        assert lazy.departs == eager.departs[:solved]
        assert lazy.depart_times() == eager.depart_times()[: lazy.horizon]
    flows = range(len(lazies[0].flow_ids))
    for k in range(since, solved):
        for lazy in lazies:
            assert np.array_equal(lazy.rates[k], eager.rates[k])
            assert np.array_equal(lazy._cum[k], eager._cum[k])
        # Replays: at the segment's start, inside it, and on its far
        # boundary when the next segment is solved (the last armed
        # boundary included — that read lands in the reserve).
        left, right = eager.bounds[k], eager.bounds[k + 1]
        probes = [base + left, base + (left + right) / 2]
        if k + 1 < solved:
            probes.append(base + right)
        for now in probes:
            remaining = [eager.remaining_at(pos, now) for pos in flows]
            rates = [eager.rate_at(pos, now) for pos in flows]
            for lazy in lazies:
                assert lazy.state_at(now) == (remaining, rates)
                assert [lazy.remaining_at(pos, now) for pos in flows] == remaining
                assert [lazy.rate_at(pos, now) for pos in flows] == rates


@settings(max_examples=150, deadline=None)
@given(components())
def test_lazy_plan_prefixes_equal_eager_schedule(component):
    """scalar == vector == eager on every lazily extended prefix: the
    scalar shape does the vector shape's IEEE operations in its order."""
    eager, *lazies = _both_shapes(component)
    total = len(eager.departs)
    armed = 0
    batch = 1
    checked = 0
    while True:
        # One more batch to arm plus one segment in reserve — or the
        # schedule ran out, and then all of it may be armed.
        solved = min(total, armed + batch + 1)
        horizon = total if solved == total else solved - 1
        for lazy in lazies:
            assert len(lazy.departs) == solved
            assert lazy.horizon == horizon
        # From the old reserve on: its far boundary is readable now.
        _assert_prefix_equal(lazies, eager, since=max(0, checked - 1))
        checked = solved
        if horizon == total:
            break
        armed = horizon
        batch *= 2
        for lazy in lazies:
            assert lazy.extend() == len(lazy.departs) - solved
    for lazy in lazies:
        assert lazy.extend() == 0
        assert [lazy.initial_rate(pos) for pos in range(len(lazy.flow_ids))] == (
            eager.rates[0].tolist()
        )
        assert all(type(row) is list for row in lazy.departs)
    scalar = lazies[1]
    assert all(type(rate) is float for row in scalar.rates for rate in row)


# ----------------------------------------------------------------------
# (a') the scalar closed form is the array closed form
# ----------------------------------------------------------------------
# Few distinct sizes: simultaneous departures (ties) are common, and
# 1e6 + 1e-7 lands two departures inside the tie window.
_UNIFORM_SIZES = st.sampled_from(
    [1e6, 1e6 + 1e-7, 2e6, 2e6, 5e6, 7.5e6, 3.3e7, 1e7 / 3]
)


@settings(max_examples=200, deadline=None)
@given(
    # Every component size the scalar form serves, up to well past the
    # 128-flow point where the array form used to be the cheaper one.
    sizes=st.integers(1, 256).flatmap(
        lambda count: st.lists(_UNIFORM_SIZES, min_size=count, max_size=count)
    ),
    c_star=st.floats(1e5, 1e9),
    base=st.sampled_from([0.0, 12.5, 1234.56789]),
    weight=st.sampled_from([None, 1.0, 0.3, 2.9]),
)
def test_scalar_uniform_plan_equals_the_array_one(sizes, c_star, base, weight):
    count = len(sizes)
    flow_ids = list(range(100, 100 + count))
    scalar = UniformPlan(flow_ids, base, sizes, c_star)
    vector = ArrayUniformPlan(flow_ids, base, sizes, c_star)
    assert scalar.flow_ids == vector.flow_ids
    assert scalar.pos_of == vector.pos_of
    assert scalar.init_remaining == vector.init_remaining.tolist()
    assert scalar.bounds == vector.bounds
    assert scalar.departs == vector.departs
    assert scalar.seg_rates == vector.seg_rates.tolist()
    assert scalar._cum == vector._cum.tolist()
    # Solved whole, armed in doubling batches (1, 3, 7, ... segments):
    # every armed prefix is the array form's, which was armed whole.
    horizon = batch = 1
    while True:
        assert scalar.horizon == min(horizon, len(scalar.departs))
        assert scalar.depart_times() == vector.depart_times()[: scalar.horizon]
        if scalar.horizon == vector.horizon:
            break
        batch *= 2
        horizon += batch
        assert scalar.extend() == 0  # nothing left to solve
    assert scalar.depart_times() == vector.depart_times()
    assert all(type(x) is float for x in scalar.bounds + scalar.seg_rates + scalar._cum)
    positions = range(count)
    probes = {base, base + scalar.bounds[-1] * 1.5}
    for left, right in zip(scalar.bounds, scalar.bounds[1:]):
        probes.update((base + left, base + (left + right) / 2, base + right))
    for now in sorted(probes):
        assert scalar.state_at(now) == vector.state_at(now)
        for pos in positions:
            assert scalar.remaining_at(pos, now) == vector.remaining_at(pos, now)
            assert scalar.rate_at(pos, now) == vector.rate_at(pos, now)
            assert scalar.initial_rate(pos) == vector.initial_rate(pos)
    # build_plan picks the closed form whatever the size, and equal
    # non-unit weights keep a component uniform.
    shared = [("up", "wan", "down")] * count
    capacities = {"up": 3 * c_star, "wan": c_star, "down": 2 * c_star}
    weights = None if weight is None else dict.fromkeys(flow_ids, weight)
    built = build_plan(flow_ids, sizes, shared, capacities, base, weights=weights)
    assert type(built) is UniformPlan
    assert built.shape == "uniform"
    assert built.bounds == scalar.bounds and built.departs == scalar.departs
    assert built.seg_rates == scalar.seg_rates


def test_build_plan_keeps_a_200_flow_same_route_component_scalar():
    """Far above ``SCALAR_MAX_FLOWS``, a same-route burst still gets the
    scalar closed form: floats and lists, the whole schedule solved and
    its first departure ready to arm."""
    count = 200
    rng = random.Random(200)
    flow_ids = list(range(count))
    sizes = [rng.uniform(1e6, 30e6) for _ in flow_ids]
    shared = [("a-up", "a->b", "b-down")] * count
    capacities = {"a-up": 1.25e8, "a->b": 1.25e7, "b-down": 1.25e8}
    built = build_plan(flow_ids, sizes, shared, capacities, 5.0)
    assert count > cascade_module.SCALAR_MAX_FLOWS
    assert type(built) is UniformPlan
    assert len(built.departs) == count and built.horizon == 1
    assert all(type(x) is float for x in built.bounds + built.seg_rates + built._cum)
    assert built.state_at(5.0) == (sorted(sizes), [1.25e7 / count] * count)


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


# Either side of the crossover: every component vector, every one scalar.
_SHAPES = ((0, GeneralPlan), (10**6, ScalarPlan))


def test_capacity_change_on_last_armed_departure_instant(
    recorded_plans, monkeypatch
):
    finals = []
    for limit, shape in _SHAPES:
        monkeypatch.setattr(cascade_module, "SCALAR_MAX_FLOWS", limit)
        recorded_plans.clear()
        observed = {}

        def observe_then_squeeze(topo, fabric, _events, observed=observed):
            observed.update(
                (flow.flow_id, (flow.remaining, flow.rate))
                for flow in fabric.active_flows()
            )
            fabric.set_link_capacity(topo.wan_link("A", "C"), 35 * MBPS)

        _run_with_action_at("vector", None, observe_then_squeeze)
        args, kwargs, first = recorded_plans[0]
        assert type(first) is shape
        eager = eager_plan(*args, **kwargs)
        assert len(eager.departs) == len(_FLOWS)  # five distinct instants
        # The first plan armed one timer; its instant is the boundary.
        boundary = eager.depart_times()[0]
        assert first.depart_times(0)[:1] == [boundary]

        # Read every member *at* the boundary, before its timer has
        # fired: the replay lands in the reserve segment, exactly where
        # the eager schedule's replay does.
        recorded_plans.clear()
        got = _run_with_action_at("vector", boundary, observe_then_squeeze)
        plan = recorded_plans[0][2]
        assert plan.horizon > 1  # the boundary's timer fired and extended
        assert not plan.alive and plan.timers == []  # the squeeze killed it
        assert sorted(observed) == sorted(plan.flow_ids)
        for flow_id, (remaining, rate) in observed.items():
            pos = plan.pos_of[flow_id]
            assert remaining == eager.remaining_at(pos, boundary)
            assert rate == eager.rate_at(pos, boundary)
        assert min(remaining for remaining, _rate in observed.values()) == 0.0
        _assert_finals_match(
            got, _run_with_action_at("global", boundary, observe_then_squeeze)
        )
        finals.append((boundary, observed, got))
    assert finals[0] == finals[1]


def test_cancel_on_last_armed_departure_instant(monkeypatch):
    """``cancel`` replays synchronously — on the boundary, before the
    boundary's own timer — so it is the read the reserve exists for."""
    finals = []
    for limit, _shape in _SHAPES:
        monkeypatch.setattr(cascade_module, "SCALAR_MAX_FLOWS", limit)
        refunds = []

        def cancel_first(_topo, fabric, events, refunds=refunds):
            refunds.append(fabric.cancel(events[0]))

        boundary = min(
            _run_with_action_at("vector", None, cancel_first).values()
        )
        got = _run_with_action_at("vector", boundary, cancel_first)
        oracle = _run_with_action_at("global", boundary, cancel_first)
        assert 0 not in got and 0 not in oracle
        assert refunds[0] == pytest.approx(refunds[1], rel=1e-9)
        _assert_finals_match(got, oracle)
        finals.append((boundary, refunds[0], got))
    assert finals[0] == finals[1]


def test_uniform_plan_arms_as_departures_fire_and_lets_go_when_done(
    recorded_plans, monkeypatch
):
    """A same-route burst is one uniform plan, solved whole but armed in
    doubling batches: its horizon grows only as departures fire.  A plan
    that finishes, or that a later arrival kills, holds no timer."""
    horizons = []
    extend = UniformPlan.extend

    def recording_extend(plan):
        planned = extend(plan)
        horizons.append(plan.horizon)
        return planned

    monkeypatch.setattr(UniformPlan, "extend", recording_extend)

    def burst(late_arrival_at=None):
        recorded_plans.clear()
        horizons.clear()
        sim, _topo, fabric = _build("vector")
        for index in range(20):
            fabric.transfer("a1", "b1", 1e6 * (index + 1))
        if late_arrival_at is not None:
            sim.call_at(late_arrival_at, lambda: fabric.transfer("a1", "b1", 3e6))
        sim.run()
        assert fabric.active_flow_count == 0
        return fabric, [plan for _args, _kwargs, plan in recorded_plans]

    fabric, plans = burst()
    assert [type(plan) for plan in plans] == [UniformPlan]
    (plan,) = plans
    assert horizons == [3, 7, 15, 20]
    assert plan.horizon == len(plan.departs) == 20
    assert plan.alive and plan.timers == []
    assert fabric.perf.plan_segments_fired == fabric.perf.plan_segments_planned == 20

    _fabric, plans = burst(late_arrival_at=2.0)
    first, *later = plans
    assert later and not first.alive and first.horizon < len(first.departs)
    assert all(plan.timers == [] for plan in plans)


def _mesh(drive):
    """4 datacenters x 2 hosts, full 100 Mbps WAN mesh, no latency."""
    sim = Simulator()
    topo = Topology()
    datacenters = [f"M{index}" for index in range(4)]
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
    return sim, topo, hosts, NetworkFabric(sim, topo, drive=drive)


def _drain_across_the_crossover(drive):
    """An all-to-all burst of 48 flows in one component, with a WAN
    capacity change every so often while it drains: the re-plans start
    above the crossover and end below it.  Returns the fabric and {flow index: completion}."""
    rng = random.Random(22)
    sim, topo, hosts, fabric = _mesh(drive)
    finals = {}
    index = 0
    for src in hosts:
        for dst in hosts:
            if src.split("-")[0] != dst.split("-")[0]:
                fabric.transfer(src, dst, rng.uniform(1e6, 40e6)).add_callback(
                    lambda _e, index=index: finals.setdefault(index, sim.now)
                )
                index += 1

    def squeeze_a_busy_link():
        # The WAN hop of the youngest flow still in flight.
        link = fabric.active_flows()[-1].route[1]
        fabric.set_link_capacity(link, link.capacity * rng.uniform(0.5, 0.9))

    for at in (0.5, 3.0, 6.0, 7.5, 8.5, 9.5, 10.5):
        sim.call_at(at, squeeze_a_busy_link)
    sim.run()
    assert fabric.active_flow_count == 0 and len(finals) == index == 48
    return fabric, finals


def test_component_draining_across_the_crossover_matches_global():
    fabric, got = _drain_across_the_crossover("vector")
    perf = fabric.perf
    assert perf.plans_vector >= 1 and perf.plans_scalar >= 1
    assert perf.plans_vector + perf.plans_scalar + perf.plans_uniform == (
        perf.solves
    )
    _assert_finals_match(got, _drain_across_the_crossover("global")[1])


def test_sanitizer_checks_every_scalar_plan(monkeypatch):
    """The rate and capacity checks run once per plan whatever its
    shape, over the full constraint system."""
    counts = []
    for limit, _shape in _SHAPES:
        monkeypatch.setattr(cascade_module, "SCALAR_MAX_FLOWS", limit)
        with sanitized() as sanitizer:
            fabric, _finals = _drain_across_the_crossover("vector")
        assert sanitizer.checks["capacity"] == fabric.perf.solves > 4
        counts.append(dict(sanitizer.checks))
    assert counts[0] == counts[1]


# ----------------------------------------------------------------------
# (c) the eager cost cannot grow back
# ----------------------------------------------------------------------
def test_fills_bounded_by_departures_on_a_churning_mesh(monkeypatch):
    """6-DC full mesh, all-to-all, eight mid-run WAN capacity changes:
    every change throws the component's plan away, so an eager planner
    pays one fill per *future* departure each time (thousands); the
    resumable one at most two per segment that fired plus two per plan.
    Each fill after a plan's first resumes where its departures froze,
    so the plans compute fewer fill levels than fresh fills of the same
    segments do (both counted, and the rates compared byte for byte)."""
    fills = []
    levels = {"resumed": 0, "fresh": 0}
    counting_for = ["resumed"]
    loop = vector_solver._levels
    resume = cascade_vector.resume_levels

    def counting_levels(*args):
        trace = args[6]
        first = len(trace.sums)
        rates = loop(*args)
        levels[counting_for[0]] += len(trace.sums) - first
        return rates

    def counting_resume(*args):
        fills.append(1)
        rates = resume(*args)
        counting_for[0] = "fresh"
        fresh = resume(*args[:6], LevelTrace(), None)
        counting_for[0] = "resumed"
        assert fresh.tobytes() == rates.tobytes()
        return rates

    monkeypatch.setattr(vector_solver, "_levels", counting_levels)
    monkeypatch.setattr(cascade_vector, "resume_levels", counting_resume)
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
    assert 0 < levels["resumed"] < levels["fresh"]
