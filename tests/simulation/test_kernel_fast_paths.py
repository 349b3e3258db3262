"""What the kernel's fast paths must not change.

``Timeout`` schedules itself without ``Event.__init__``, a ``Process``
starts from a bare ready-deque entry, ``_resume`` reads slots and
registers itself on what the generator yields, and ``run_until_event``
delivers inline.  Delivery order, the events counted and what a debug
message prints are the contract; these tests hold it where those
shortcuts could bend it.
"""

import pytest

from repro.cluster.context import ClusterContext
from repro.errors import SimulationError
from repro.experiments.runner import ExperimentPlan
from repro.experiments.schemes import Scheme, config_for_scheme
from repro.scheduler.job_scheduler import run_stream
from repro.simulation import Simulator
from repro.simulation.random_source import RandomSource
from repro.workloads import workload_by_name
from repro.workloads.arrivals import (
    ArrivalSpec,
    StreamSpec,
    TenantSpec,
    generate_arrivals,
)


def test_interrupt_before_start_lands_after_the_first_yield():
    sim = Simulator()
    trail = []

    def sleeper(sim):
        trail.append("started")
        try:
            yield sim.timeout(100.0)
        except SimulationError as error:
            trail.append(f"interrupted: {error}")
            return sim.now
        return -1.0

    process = sim.spawn(sleeper(sim))
    process.interrupt("too early")  # the generator has not run yet
    assert trail == []
    sim.run()
    assert trail == ["started", "interrupted: too early"]
    assert process.value == 0.0


def test_interrupting_a_finished_process_is_a_no_op():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)
        return "done"

    process = sim.spawn(quick(sim))
    sim.run()
    events = sim.processed_events
    process.interrupt("too late")
    sim.run()
    assert process.value == "done"
    assert sim.processed_events == events


def test_process_returning_without_yielding():
    sim = Simulator()

    def instant(sim):
        return sim.now + 42.0
        yield  # pragma: no cover - makes this a generator

    process = sim.spawn(instant(sim))
    assert not process.triggered  # runs on the next tick, not in spawn()
    waiter = sim.spawn(_wait_for(process))
    sim.run()
    assert process.value == 42.0
    assert waiter.value == 42.0
    # Start entry + completion, twice.
    assert sim.processed_events == 4


def _wait_for(event):
    return (yield event)


def test_process_yielding_an_already_processed_event():
    sim = Simulator()
    fired = sim.event("early")
    fired.succeed("early value")
    failed = sim.event("broken")
    failed.fail(ValueError("early error"))
    sim.run()
    events = sim.processed_events

    def late(sim):
        first = yield fired  # delivered long ago: resumes at once
        try:
            yield failed
        except ValueError as error:
            second = str(error)
        yield sim.timeout(2.0)
        return first, second, sim.now

    process = sim.spawn(late(sim))
    sim.run()
    assert process.value == ("early value", "early error", 2.0)
    # Start entry, the timeout, the process's own completion: the two
    # processed events were not delivered again.
    assert sim.processed_events == events + 3


def test_timeout_cancel_before_delivery():
    sim = Simulator()
    seen = []
    doomed = sim.timeout(5.0, value="never")
    doomed.add_callback(seen.append)
    kept = sim.timeout(5.0, value="kept")
    kept.add_callback(lambda event: seen.append(event.value))
    doomed.cancel()
    sim.run()
    assert seen == ["kept"]
    assert not doomed.triggered
    assert sim.processed_events == 1  # skipped, not delivered


def test_timeout_cancel_after_delivery_changes_nothing():
    sim = Simulator()
    done = sim.timeout(1.0, value="fired")
    sim.run()
    done.cancel()
    assert done.triggered and done.value == "fired"
    late = []
    done.add_callback(lambda event: late.append(event.value))
    assert late == ["fired"]


def test_zero_delay_timeout_keeps_fifo_order_with_succeed():
    sim = Simulator()
    order = []
    first = sim.event("first")
    first.add_callback(lambda _e: order.append("event"))
    first.succeed()
    sim.timeout(0.0).add_callback(lambda _e: order.append("timeout"))
    sim.spawn(_note(order))
    sim.run()
    assert order == ["event", "timeout", "process"]
    assert sim.now == 0.0


def _note(order):
    order.append("process")
    return
    yield  # pragma: no cover


def test_names_are_formatted_when_printed():
    sim = Simulator()
    pending = sim.timeout(2.5)
    assert pending.name == ""
    assert repr(pending) == "<Event timeout(2.5) pending>"
    named = sim.timeout(1.0, value=7, name="lease")
    sim.run()
    assert repr(pending) == "<Event timeout(2.5) ok(None)>"
    assert repr(named) == "<Event lease ok(7)>"
    assert repr(sim.event("plain")) == "<Event plain pending>"
    with pytest.raises(SimulationError, match=r"timeout\(9\.0\)"):
        stalled = sim.timeout(9.0)
        stalled.cancel()
        sim.run_until_event(stalled)


def test_run_until_event_stops_on_the_event_itself():
    sim = Simulator()
    after = []
    target = sim.timeout(3.0, value="target")
    sim.timeout(3.0).add_callback(after.append)  # same instant, queued later
    assert sim.run_until_event(target) == "target"
    assert after == [] and sim.processed_events == 1
    sim.run()
    assert len(after) == 1 and sim.processed_events == 2


def test_stream_event_count_is_pinned():
    """50 jobs of two tenants on the six-region cluster deliver exactly
    the events they did before the fast paths (and the same clock)."""
    spec = StreamSpec(
        arrival=ArrivalSpec("poisson", 600.0, 50),
        tenants=(
            TenantSpec("prod", weight=2.0),
            TenantSpec("batch", weight=1.0),
        ),
        policy="fair",
        max_concurrent=4,
    )
    cluster = ExperimentPlan().cluster
    arrivals = generate_arrivals(
        spec, cluster.datacenters, RandomSource(7).child("stream")
    )
    context = ClusterContext(
        cluster,
        config_for_scheme(Scheme.SPARK, workload_by_name("wordcount").spec, 7),
    )
    stream = run_stream(context, spec, arrivals)
    context.shutdown()
    assert stream.jobs_completed == 50
    assert context.fabric.perf.total_flows == 400
    assert context.sim.processed_events == 5327
    assert context.sim.now == 66.70816109580176
