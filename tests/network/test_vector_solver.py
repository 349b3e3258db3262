"""Vectorized solver vs. the scalar oracle, and duplicate-link semantics.

The numpy CSR kernel in :mod:`repro.network.vector_solver` must agree
with the scalar progressive-filling solver to 1e-9 relative on arbitrary
topologies — including routes that traverse the same link twice, flows
with empty (unconstrained, ``inf``) routes, and degenerate single-link
meshes.  The scalar solver is the oracle; these tests are the contract
that lets the fabric's vector drive trust the kernel.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fair_share import max_min_fair_rates, verify_allocation
from repro.network.incremental import IncrementalFairShare
from repro.network.topology import Link
from repro.network.vector_solver import max_min_fair_rates_numpy


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
# Exact cases
# ----------------------------------------------------------------------
def test_matches_classic_three_flow_example():
    flows = {"f1": ["a", "b"], "f2": ["a"], "f3": ["b"]}
    links = {"a": 10.0, "b": 4.0}
    _assert_rates_match(
        max_min_fair_rates(flows, links),
        max_min_fair_rates_numpy(flows, links),
    )


def test_empty_route_is_infinite():
    rates = max_min_fair_rates_numpy({"free": [], "pinned": ["l"]}, {"l": 8.0})
    assert math.isinf(rates["free"])
    assert rates["pinned"] == pytest.approx(8.0)


def test_all_empty_routes():
    rates = max_min_fair_rates_numpy({"a": [], "b": []}, {})
    assert math.isinf(rates["a"]) and math.isinf(rates["b"])


def test_no_flows():
    assert max_min_fair_rates_numpy({}, {"l": 1.0}) == {}


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        max_min_fair_rates_numpy({"f": ["l"]}, {"l": 0.0})


def test_duplicate_link_consumes_capacity_twice():
    """A route crossing the same link twice gets half the solo rate and
    both solvers agree — the multi-traversal semantics documented in
    fair_share."""
    flows = {"relay": ["wan", "wan"], "plain": ["wan"]}
    links = {"wan": 9.0}
    scalar = max_min_fair_rates(flows, links)
    # Filling raises both at share s until 2s + s = 9 -> s = 3.
    assert scalar["relay"] == pytest.approx(3.0)
    assert scalar["plain"] == pytest.approx(3.0)
    _assert_rates_match(scalar, max_min_fair_rates_numpy(flows, links))
    # verify_allocation charges per occurrence, so the solution it sees
    # exactly fills the link.
    verify_allocation(flows, links, scalar)


# ----------------------------------------------------------------------
# Property-based equivalence (the oracle contract)
# ----------------------------------------------------------------------
@st.composite
def _scenarios(draw):
    """Random topologies with duplicate-link routes and inf-route flows."""
    num_links = draw(st.integers(min_value=1, max_value=7))
    links = {f"l{i}": draw(st.floats(0.5, 100.0)) for i in range(num_links)}
    num_flows = draw(st.integers(min_value=0, max_value=10))
    flows = {}
    for i in range(num_flows):
        route = draw(
            st.lists(
                st.sampled_from(sorted(links)),
                min_size=0,  # empty -> unconstrained (inf)
                max_size=num_links + 2,  # > num_links forces duplicates
            )
        )
        flows[f"f{i}"] = route
    return flows, links


@given(_scenarios())
@settings(max_examples=300, deadline=None)
def test_vectorized_matches_scalar_oracle(scenario):
    flows, links = scenario
    _assert_rates_match(
        max_min_fair_rates(flows, links),
        max_min_fair_rates_numpy(flows, links),
    )


@given(_scenarios())
@settings(max_examples=150, deadline=None)
def test_vectorized_allocation_is_feasible(scenario):
    flows, links = scenario
    constrained = {f: r for f, r in flows.items() if r}
    rates = max_min_fair_rates_numpy(flows, links)
    if constrained:
        verify_allocation(
            constrained,
            {l: c for l, c in links.items()},
            {f: rates[f] for f in constrained},
        )


# ----------------------------------------------------------------------
# Duplicate links through the component index (regression: the old
# remove_flow raised KeyError unwinding the second occurrence)
# ----------------------------------------------------------------------
def _solve_subproblem(engine, ids):
    return max_min_fair_rates(
        *engine.solver_inputs(ids), flow_weights=engine.weights_for(ids)
    )


def test_component_index_handles_duplicate_links():
    engine = IncrementalFairShare()
    wan = Link("wan", 10.0, is_wan=True)
    side = Link("side", 50.0)
    engine.add_flow(1, [wan, side, wan])
    engine.add_flow(2, [wan])
    assert engine.component((1,), ()) == {1, 2}
    rates = _solve_subproblem(engine, [1, 2])
    scalar = max_min_fair_rates(*engine.solver_inputs())
    assert rates[1] == pytest.approx(scalar[1])
    assert rates[2] == pytest.approx(scalar[2])
    # 2*r1 + r2 = 10 with r1 = r2 -> both 10/3.
    assert rates[1] == pytest.approx(10.0 / 3.0)
    engine.remove_flow(1)  # must not KeyError on the repeated link
    assert _solve_subproblem(engine, [2])[2] == pytest.approx(10.0)
    engine.remove_flow(2)
    assert engine.flow_count == 0


def test_subproblem_is_the_solver_inputs_with_the_cap_as_a_value():
    """The planner's slice is the solver inputs, with each flow's private
    cap as a number beside its route: ``inf``, since no flow has one."""
    engine = IncrementalFairShare()
    wan = Link("wan", 10.0, is_wan=True)
    lan = Link("lan", 50.0)
    engine.add_flow(7, [lan, wan, lan])
    engine.add_flow(9, [lan])
    shared, caps, capacities = engine.subproblem([7, 9])
    assert shared == [("lan", "wan", "lan"), ("lan",)]
    assert caps == [float("inf")] * 2
    assert capacities == {"lan": 50.0, "wan": 10.0}
    routes, solver_capacities = engine.solver_inputs([7, 9])
    assert routes == {7: ("lan", "wan", "lan"), 9: ("lan",)}
    assert solver_capacities == capacities
    assert (routes, capacities) == engine.solver_inputs()
    engine.remove_flow(7)
    assert engine.solver_inputs() == ({9: ("lan",)}, {"lan": 50.0})
