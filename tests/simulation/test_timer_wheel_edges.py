"""Agenda edge cases: lazy cancellation before and after firing,
``run(until=...)`` horizons between close timers, and past-time
scheduling.  ``test_agenda.py`` holds the ordering contract as a
property; these are the named cases beside it."""

import math

import pytest

from repro.errors import SimulationError
from repro.simulation.kernel import Simulator


# ---------------------------------------------------------------------------
# Lazy cancellation of an already-fired timer
# ---------------------------------------------------------------------------


def test_cancel_after_fire_is_harmless():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    # The timer already fired; cancelling now must be a silent no-op.
    handle.cancel()
    assert handle._cancelled
    sim.run()
    assert fired == [1.0]


def test_cancelled_timer_never_fires_and_costs_no_delivery():
    sim = Simulator()
    fired = []
    keep = sim.call_later(2.0, lambda: fired.append("keep"))
    drop = sim.call_later(1.0, lambda: fired.append("drop"))
    drop.cancel()
    before = sim.processed_events
    sim.run()
    assert fired == ["keep"]
    assert not keep._cancelled
    # Only the surviving timer was delivered; the cancelled one was
    # purged at drain time, not dispatched as a no-op.
    assert sim.processed_events == before + 1


# ---------------------------------------------------------------------------
# run(until=...) horizons
# ---------------------------------------------------------------------------


def test_run_until_parks_mid_bucket_then_resumes_in_order():
    # The run horizon falls between two close timers: the later one
    # must wait for the next run, without loss or reordering.
    sim = Simulator()
    fired = []
    sim.call_at(0.101, lambda: fired.append(0.101))
    sim.call_at(0.104, lambda: fired.append(0.104))
    sim.run(until=0.102)
    assert fired == [0.101]
    assert sim.now == 0.102
    sim.run()
    assert fired == [0.101, 0.104]


def test_earlier_timer_scheduled_after_parking_fires_first():
    # After a run stops between two timers, a new timer earlier than the
    # pending one must fire before it.
    sim = Simulator()
    fired = []
    sim.call_at(10.2, lambda: fired.append(10.2))
    sim.call_at(10.8, lambda: fired.append(10.8))
    sim.run(until=10.5)
    assert fired == [10.2]
    early = sim.call_later(0.1, lambda: fired.append("early"))
    assert not early._cancelled
    sim.run()
    assert fired == [10.2, "early", 10.8]


def test_same_instant_entries_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in ("a", "b", "c"):
        sim.call_at(5.0, lambda tag=tag: fired.append(tag))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_push_into_active_bucket_keeps_sorted_order():
    # While an instant is delivered, a callback schedules another timer
    # a little later: it must fire after the current entry, in time
    # order.
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.call_at(7.9, lambda: fired.append("second"))

    sim.call_at(7.1, first)
    sim.run()
    assert fired == ["first", "second"]


# ---------------------------------------------------------------------------
# call_at in the past
# ---------------------------------------------------------------------------


def test_call_at_in_the_past_raises():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(SimulationError, match="past"):
        sim.call_at(0.5, lambda: None)


@pytest.mark.parametrize(
    "schedule",
    [
        lambda sim: sim.call_at(math.nan, lambda: None),
        lambda sim: sim.run(until=math.nan),
    ],
    ids=["call_at", "run_until"],
)
def test_nan_time_is_in_the_past(schedule):
    """Every comparison with NaN is False; the guard must still refuse
    it, or a NaN key sits in the agenda and breaks its ordering."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="past"):
        schedule(sim)
    assert sim.run() == 0.0


def test_nan_delay_is_negative():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative"):
        sim.call_later(math.nan, lambda: None)
    with pytest.raises(ValueError, match="negative"):
        sim.timeout(math.nan)
    assert sim.run() == 0.0


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative"):
        sim.call_later(-0.1, lambda: None)


def test_call_at_now_fires_this_instant():
    sim = Simulator()
    fired = []
    sim.call_at(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]
