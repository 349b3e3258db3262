"""Weighted max-min fair share: every solver must agree to 1e-9.

Per-tenant WAN quotas make every flow carry a weight; the scalar
progressive-filling oracle and the numpy CSR kernel (and the cascade
plans built on it) thread weights through their fill loops, and the
component index hands them the weight slice.  These tests pin the semantics — rate ratios follow
weight ratios on shared bottlenecks, duplicate-link routes charge per
occurrence times weight — and the equivalence contract on random
topologies with random non-uniform weights.

Also the byte-identity guarantee: unit weights (or no weights) must
take the *exact* unweighted code path, so pre-refactor single-job runs
reproduce bit-for-bit.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fabric import NetworkFabric
from repro.network.fair_share import max_min_fair_rates, verify_allocation
from repro.network.incremental import IncrementalFairShare
from repro.network.topology import GBPS, MBPS, Link, Topology
from repro.network.vector_solver import max_min_fair_rates_numpy
from repro.simulation import Simulator


def _assert_rates_match(scalar, vectorized, rel=1e-9):
    assert scalar.keys() == vectorized.keys()
    for flow_id, expected in scalar.items():
        got = vectorized[flow_id]
        if math.isinf(expected):
            assert math.isinf(got), f"{flow_id}: {got} != inf"
        else:
            assert got == pytest.approx(expected, rel=rel, abs=1e-9), (
                f"{flow_id}: vectorized {got} != scalar {expected}"
            )


# ----------------------------------------------------------------------
# Exact semantics
# ----------------------------------------------------------------------
def test_weights_split_a_shared_bottleneck():
    """Two flows, weights 2:1, one 9-unit link -> rates 6 and 3."""
    flows = {"heavy": ["wan"], "light": ["wan"]}
    links = {"wan": 9.0}
    weights = {"heavy": 2.0, "light": 1.0}
    rates = max_min_fair_rates(flows, links, flow_weights=weights)
    assert rates["heavy"] == pytest.approx(6.0)
    assert rates["light"] == pytest.approx(3.0)
    _assert_rates_match(
        rates, max_min_fair_rates_numpy(flows, links, flow_weights=weights)
    )


def test_weighted_duplicate_link_charges_per_occurrence():
    """A twice-crossing route consumes 2 x weight x level on the link."""
    flows = {"relay": ["wan", "wan"], "plain": ["wan"]}
    links = {"wan": 10.0}
    weights = {"relay": 2.0, "plain": 1.0}
    rates = max_min_fair_rates(flows, links, flow_weights=weights)
    # Level h: relay draws 2h, crossing twice -> 4h + 1h = 10 -> h = 2.
    assert rates["relay"] == pytest.approx(4.0)
    assert rates["plain"] == pytest.approx(2.0)
    verify_allocation(flows, links, rates)
    _assert_rates_match(
        rates, max_min_fair_rates_numpy(flows, links, flow_weights=weights)
    )


def test_weighted_empty_route_is_infinite():
    rates = max_min_fair_rates(
        {"free": [], "pinned": ["l"]},
        {"l": 8.0},
        flow_weights={"free": 3.0, "pinned": 2.0},
    )
    assert math.isinf(rates["free"])
    assert rates["pinned"] == pytest.approx(8.0)


def test_nonpositive_weight_rejected():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            max_min_fair_rates(
                {"f": ["l"]}, {"l": 1.0}, flow_weights={"f": bad}
            )
        with pytest.raises(ValueError):
            max_min_fair_rates_numpy(
                {"f": ["l"]}, {"l": 1.0}, flow_weights={"f": bad}
            )


def test_unit_weights_are_byte_identical_to_unweighted():
    """weights absent, None, or all 1.0 -> the exact unweighted result."""
    flows = {"f1": ["a", "b"], "f2": ["a"], "f3": ["b", "b"], "f4": []}
    links = {"a": 10.0, "b": 4.0}
    baseline = max_min_fair_rates(flows, links)
    unit = max_min_fair_rates(
        flows, links, flow_weights={f: 1.0 for f in flows}
    )
    assert unit == baseline or all(
        unit[f] == baseline[f] or (math.isinf(unit[f]) and math.isinf(baseline[f]))
        for f in flows
    )
    assert max_min_fair_rates(flows, links, flow_weights=None) == baseline


def test_equal_weights_match_unweighted_shape():
    """Uniform non-1 weights rescale nothing: max-min is scale-free."""
    flows = {"f1": ["a", "b"], "f2": ["a"], "f3": ["b"]}
    links = {"a": 10.0, "b": 4.0}
    _assert_rates_match(
        max_min_fair_rates(flows, links),
        max_min_fair_rates(
            flows, links, flow_weights={f: 5.0 for f in flows}
        ),
    )


# ----------------------------------------------------------------------
# Property-based: the three-solver weighted contract
# ----------------------------------------------------------------------
@st.composite
def _weighted_scenarios(draw):
    """Random topologies, duplicate-link routes, non-uniform weights."""
    num_links = draw(st.integers(min_value=1, max_value=7))
    links = {f"l{i}": draw(st.floats(0.5, 100.0)) for i in range(num_links)}
    num_flows = draw(st.integers(min_value=0, max_value=10))
    flows = {}
    weights = {}
    for i in range(num_flows):
        flows[f"f{i}"] = draw(
            st.lists(
                st.sampled_from(sorted(links)),
                min_size=0,
                max_size=num_links + 2,  # > num_links forces duplicates
            )
        )
        weights[f"f{i}"] = draw(st.floats(0.05, 20.0))
    return flows, links, weights


@given(_weighted_scenarios())
@settings(max_examples=300, deadline=None)
def test_weighted_vectorized_matches_scalar_oracle(scenario):
    flows, links, weights = scenario
    _assert_rates_match(
        max_min_fair_rates(flows, links, flow_weights=weights),
        max_min_fair_rates_numpy(flows, links, flow_weights=weights),
    )


@given(_weighted_scenarios())
@settings(max_examples=150, deadline=None)
def test_weighted_allocation_is_feasible(scenario):
    flows, links, weights = scenario
    constrained = {f: r for f, r in flows.items() if r}
    rates = max_min_fair_rates_numpy(flows, links, flow_weights=weights)
    if constrained:
        verify_allocation(
            constrained, dict(links), {f: rates[f] for f in constrained}
        )


@given(_weighted_scenarios())
@settings(max_examples=100, deadline=None)
def test_weighted_component_index_subproblem_matches_oracle(scenario):
    """The (routes, capacities, weights) slice the component index
    hands the planner solves to the from-scratch allocation."""
    flows, links, weights = scenario
    engine = IncrementalFairShare()
    link_objects = {
        name: Link(name, capacity) for name, capacity in links.items()
    }
    for flow_id, route in flows.items():
        engine.add_flow(
            flow_id,
            tuple(link_objects[name] for name in route),
            weight=weights[flow_id],
        )
    ids = sorted(flows)
    got = max_min_fair_rates(
        *engine.solver_inputs(ids), flow_weights=engine.weights_for(ids)
    )
    expected = max_min_fair_rates(
        {f: tuple(r) for f, r in flows.items()},
        dict(links),
        flow_weights=weights,
    )
    _assert_rates_match(expected, got)


# ----------------------------------------------------------------------
# Fabric drives: weighted flows through vector / global
# ----------------------------------------------------------------------
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
    fabric.set_tenant_weight("gold", 3.0)
    fabric.set_tenant_weight("bronze", 1.0)
    return sim, fabric


def _run_weighted_scenario(drive):
    sim, fabric = _build(drive)
    completions = {}

    def track(label, event):
        event.add_callback(
            lambda _e, label=label: completions.setdefault(label, sim.now)
        )

    track("g1", fabric.transfer("a1", "b1", 40e6, tag="x", tenant="gold"))
    track("b1", fabric.transfer("a2", "b1", 40e6, tag="x", tenant="bronze"))
    # A staggered bronze arrival and a cross-path gold flow, so plans
    # are perturbed mid-flight under weighting.
    sim.call_later(
        0.5,
        lambda: track(
            "b2", fabric.transfer("a1", "b1", 20e6, tag="x", tenant="bronze")
        ),
    )
    sim.call_later(
        0.7,
        lambda: track(
            "g2", fabric.transfer("a2", "c1", 30e6, tag="x", tenant="gold")
        ),
    )
    sim.run()
    assert fabric.active_flow_count == 0
    return completions


def test_weighted_drives_agree():
    oracle = _run_weighted_scenario("global")
    assert set(oracle) == {"g1", "b1", "b2", "g2"}
    got = _run_weighted_scenario("vector")
    for label, expected in oracle.items():
        assert got[label] == pytest.approx(expected, rel=1e-9), (
            f"vector: {label} finished at {got[label]}, "
            f"global says {expected}"
        )
    # Weighting is visible: gold's concurrent flow beats bronze's.
    assert oracle["g1"] < oracle["b1"]


def test_unit_weight_tenants_do_not_change_completions():
    """Tenanted flows at weight 1.0 ride the unweighted solver path and
    finish at exactly the untenanted times (byte-identity guarantee)."""

    def run(tenant):
        sim = Simulator()
        topo = Topology()
        topo.add_datacenter("A")
        topo.add_datacenter("B")
        topo.add_host("a1", "A", access_bandwidth=GBPS, access_latency=0.0)
        topo.add_host("b1", "B", access_bandwidth=GBPS, access_latency=0.0)
        topo.connect_datacenters("A", "B", 100 * MBPS, latency=0.0)
        fabric = NetworkFabric(sim, topo, drive="vector")
        done = []
        for size in (10e6, 25e6, 40e6):
            event = fabric.transfer("a1", "b1", size, tag="x", tenant=tenant)
            event.add_callback(lambda _e: done.append(sim.now))
        sim.run()
        return done

    assert run("") == run("solo")
