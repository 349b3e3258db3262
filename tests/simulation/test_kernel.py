"""Simulator kernel: clock, ordering, and process semantics."""

import pytest

from repro.errors import SimulationError
from repro.simulation import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay).add_callback(
            lambda _e, d=delay: order.append(d)
        )
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for label in range(5):
        sim.timeout(1.0).add_callback(
            lambda _e, l=label: order.append(l)
        )
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.timeout(10.0).add_callback(lambda _e: fired.append(True))
    final = sim.run(until=5.0)
    assert final == 5.0
    assert not fired
    sim.run()
    assert fired


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_on_an_empty_agenda_returns_zero():
    assert Simulator().run() == 0.0


def test_simple_process():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)
        return sim.now

    assert sim.run_process(worker(sim)) == 5.0


def test_process_return_value_is_event_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "result"

    process = sim.spawn(worker(sim))
    sim.run()
    assert process.value == "result"


def test_process_waits_for_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(4.0)
        return "child-result"

    def parent(sim):
        result = yield sim.spawn(child(sim))
        return (sim.now, result)

    assert sim.run_process(parent(sim)) == (4.0, "child-result")


def test_process_exception_fails_its_event():
    sim = Simulator()

    def crasher(sim):
        yield sim.timeout(1.0)
        raise ValueError("inside process")

    process = sim.spawn(crasher(sim))
    sim.run()
    assert process.failed
    with pytest.raises(ValueError):
        _ = process.value


def test_exception_propagates_to_waiting_process():
    sim = Simulator()

    def crasher(sim):
        yield sim.timeout(1.0)
        raise ValueError("child crash")

    def parent(sim):
        try:
            yield sim.spawn(crasher(sim))
        except ValueError:
            return "caught"
        return "not caught"

    assert sim.run_process(parent(sim)) == "caught"


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42  # not an Event

    process = sim.spawn(bad(sim))
    sim.run()
    assert process.failed


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_interrupt_throws_into_process():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except SimulationError:
            return sim.now
        return -1.0

    process = sim.spawn(sleeper(sim))
    sim.timeout(5.0).add_callback(lambda _e: process.interrupt("wake up"))
    sim.run()
    assert process.value == 5.0


def test_run_until_event_with_background_noise():
    sim = Simulator()

    def noise(sim):
        while True:
            yield sim.timeout(1.0)

    sim.spawn(noise(sim))
    target = sim.timeout(10.5)
    value = sim.run_until_event(target)
    assert sim.now == 10.5


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    never = sim.event("never")
    with pytest.raises(SimulationError):
        sim.run_until_event(never)


def test_run_process_deadlock_detected():
    sim = Simulator()

    def stuck(sim):
        yield sim.event("nobody fires this")

    with pytest.raises(SimulationError):
        sim.run_process(stuck(sim))


def test_many_processes_complete():
    sim = Simulator()
    results = []

    def worker(sim, index):
        yield sim.timeout(float(index % 7))
        results.append(index)

    for index in range(200):
        sim.spawn(worker(sim, index))
    sim.run()
    assert sorted(results) == list(range(200))


def test_processed_events_counter_increases():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert sim.processed_events >= 2
