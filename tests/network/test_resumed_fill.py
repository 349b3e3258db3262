"""Resumed fills vs. fresh ones.

``GeneralPlan`` picks each unweighted fill up at the lowest level at
which a flow that just departed froze, instead of refilling from level 0
(``vector_solver.resume_levels``).  That is only a saving if no rate
moves by a bit, so every segment of a plan driven to completion is
compared with a fresh ``fill_levels`` on that segment's active set by
``tobytes()``: random components of 33-120 flows (the vector shape's
sizes) with duplicate-link routes and tied departures,
plus the cases the resume rule has to get right by construction.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.cascade_vector import GeneralPlan
from repro.network.vector_solver import (
    LevelTrace,
    build_csr,
    fill_levels,
    resume_levels,
    saturation_floor,
)


def _drive_against_fresh_fills(sizes, routes, capacities):
    """Solve a plan to the end; each segment's rates must be the bytes of
    a fresh fill of the flows still in flight.  Returns the plan."""
    count = len(routes)
    plan = GeneralPlan(list(range(count)), 0.0, sizes, routes, capacities)
    while not plan.complete:
        plan.extend()
    indices, indptr, flow_of_entry = build_csr(routes)
    capacities = np.asarray(capacities, dtype=float)
    floor = saturation_floor(capacities)
    active = np.ones(count, dtype=bool)
    for rates, departed in zip(plan.rates, plan.departs):
        fresh = fill_levels(
            indices, indptr[:-1], flow_of_entry, capacities, floor, active
        )
        assert rates.tobytes() == fresh.tobytes()
        active[departed] = False
    assert not active.any()
    return plan


@st.composite
def components(draw):
    num_links = draw(st.integers(2, 8))
    num_flows = draw(st.integers(33, 120))
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
    return sizes, routes, capacities


@settings(max_examples=60, deadline=None)
@given(components())
def test_every_resumed_fill_is_a_fresh_fill(component):
    _drive_against_fresh_fills(*component)


# ----------------------------------------------------------------------
# The cases the resume rule has to get right by construction
# ----------------------------------------------------------------------
def test_a_link_only_departed_flows_cross():
    """Flow 32 alone on link 1 freezes at the middle level and departs
    first: its link drops out of the system, the flows above it refill."""
    routes = [[0]] * 32 + [[1]] + [[2]] * 8
    sizes = [1e7] * 32 + [1e5] + [5e7] * 8
    plan = _drive_against_fresh_fills(sizes, routes, [32e6, 2e6, 24e6])
    first = plan.rates[0]
    assert plan.departs[0] == [32]
    assert first[0] < first[32] < first[33]
    # The remainder above the departed flow's level took link 1's share.
    assert plan.rates[1][33] == first[33]


def test_a_remainder_frozen_below_the_departed_level():
    """Everything left froze below the level at which the departed flow
    froze: the resumed fill has nothing left to fill and keeps every
    stamp."""
    routes = [[0]] * 33 + [[1]]
    sizes = [1e7] * 33 + [1e5]
    plan = _drive_against_fresh_fills(sizes, routes, [33e6, 100e6])
    first = plan.rates[0]
    assert plan.departs[0] == [33]
    assert first[33] > first[:33].max()
    assert plan.rates[1].tolist() == first[:33].tolist() + [0.0]


def test_departed_flows_frozen_at_level_zero():
    """The first departures froze at the first level: the fill restarts
    from level 0, with the trace rebuilt from there."""
    routes = [[0]] * 32 + [[1]] * 9
    sizes = [1e5, 1e5] + [1e7] * 30 + [2e7] * 9
    plan = _drive_against_fresh_fills(sizes, routes, [32e6, 36e6])
    first = plan.rates[0]
    assert plan.departs[0] == [0, 1]
    assert first[0] == first[:32].min() < first[32]


def test_freezing_nothing_at_a_resumed_level():
    """The numerical corner: a level whose minimum link does not reach
    its floor freezes everything still filling.  With finite capacities
    rounding never leaves the minimum that far above its floor, so the
    system here has a link whose floor is below zero — it never
    saturates, and its flows freeze only through the corner, at level 1.
    Resumed fills along a departure order (corner flows first, then
    level-0 flows, then the rest) equal fresh ones."""
    routes = [[0]] * 32 + [[1]] * 9
    indices, indptr, flow_of_entry = build_csr(routes)
    starts = indptr[:-1]
    capacities = np.array([32.0, 90.0])
    floor = np.array([saturation_floor(capacities)[0], -1.0])
    active = np.ones(len(routes), dtype=bool)
    trace = LevelTrace()
    departed = None
    fills = []
    for leaving in ([32, 33], list(range(6)), [34, 35, 36], list(range(6, 32))):
        rates = resume_levels(
            indices, starts, flow_of_entry, capacities, floor, active, trace, departed
        )
        fresh = fill_levels(indices, starts, flow_of_entry, capacities, floor, active)
        assert rates.tobytes() == fresh.tobytes()
        fills.append(list(trace.sums))
        active[leaving] = False
        departed = leaving
    # Level 0 saturates link 0 at share 1; level 1 takes link 1's 81 left
    # over 9 flows and freezes them all without saturating it.  After
    # flows 32-33 leave, level 1 is refilled from the replayed 90 - 1 * 7.
    assert fills[0] == [1.0, 10.0]
    assert fills[1] == [1.0, 1.0 + 83.0 / 7.0]
