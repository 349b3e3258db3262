"""TaskScheduler: slots, locality levels, delay scheduling, spreading."""

import pytest

from repro.network.topology import GBPS, Topology
from repro.scheduler.task import Task
from repro.scheduler.task_scheduler import (
    COMPUTE_WAITS,
    RECEIVER_WAITS,
    Executor,
    TaskScheduler,
)
from repro.simulation import Simulator


class FakeStage:
    """A minimal stand-in for Stage: only .rdd.context.topology is used."""

    def __init__(self, topology):
        class _Ctx:
            pass

        class _Rdd:
            pass

        self.rdd = _Rdd()
        self.rdd.context = _Ctx()
        self.rdd.context.topology = topology


def build(cores=1, hosts_per_dc=2, dcs=("A", "B"), waits=COMPUTE_WAITS):
    sim = Simulator()
    topo = Topology()
    for dc in dcs:
        topo.add_datacenter(dc)
        for index in range(hosts_per_dc):
            topo.add_host(f"{dc}{index}", dc, access_bandwidth=GBPS)
    for i, src in enumerate(dcs):
        for dst in dcs[i + 1:]:
            topo.connect_datacenters(src, dst, GBPS)
    executors = {
        name: Executor(name, cores) for name in topo.all_host_names()
    }
    launched = []

    def run_task(task, host):
        launched.append((task, host, sim.now))
        yield sim.timeout(task_duration[0])
        return host

    task_duration = [1.0]
    scheduler = TaskScheduler(sim, topo, executors, run_task, waits=waits)
    stage = FakeStage(topo)
    return sim, scheduler, stage, launched, task_duration


def test_task_with_free_preferred_host_runs_there_immediately():
    sim, scheduler, stage, launched, _d = build()
    done = scheduler.submit(Task(stage, 0, preferred_hosts=["B1"]))
    sim.run()
    assert done.value == "B1"
    assert launched[0][2] == 0.0


def test_no_preference_task_runs_anywhere_immediately():
    sim, scheduler, stage, launched, _d = build()
    done = scheduler.submit(Task(stage, 0, preferred_hosts=[]))
    sim.run()
    assert done.triggered


def test_tasks_queue_when_slots_busy():
    sim, scheduler, stage, launched, duration = build(
        cores=1, hosts_per_dc=1, dcs=("A",)
    )
    duration[0] = 5.0
    first = scheduler.submit(Task(stage, 0, []))
    second = scheduler.submit(Task(stage, 1, []))
    sim.run()
    starts = sorted(time for _t, _h, time in launched)
    assert starts == [0.0, 5.0]


def test_locality_wait_then_same_datacenter():
    """Preferred host busy: task upgrades to DC-local after the wait."""
    sim, scheduler, stage, launched, duration = build(
        cores=1, waits=(2.0, 100.0)
    )
    duration[0] = 50.0
    scheduler.submit(Task(stage, 0, ["A0"]))  # occupies A0
    waiting = scheduler.submit(Task(stage, 1, ["A0"]))
    sim.run(until=10.0)
    assert waiting.triggered is False or True  # it may be running
    # The second task must have launched on the other A host at t=2.
    second = [entry for entry in launched if entry[0].partition == 1]
    assert second and second[0][1] == "A1"
    assert second[0][2] == pytest.approx(2.0)


def test_locality_wait_then_anywhere():
    """Whole preferred DC busy: task escapes after host+dc waits."""
    sim, scheduler, stage, launched, duration = build(
        cores=1, waits=(1.0, 3.0)
    )
    duration[0] = 50.0
    scheduler.submit(Task(stage, 0, ["A0"]))
    scheduler.submit(Task(stage, 1, ["A1"]))
    escapee = scheduler.submit(Task(stage, 2, ["A0", "A1"]))
    sim.run(until=10.0)
    third = [entry for entry in launched if entry[0].partition == 2]
    assert third and third[0][1] in ("B0", "B1")
    assert third[0][2] == pytest.approx(4.0)


def test_receiver_waits_pin_tasks_to_their_datacenter():
    """The transfer service's waits keep a task queued for its
    preferred datacenter where compute waits would let it escape."""
    sim, scheduler, stage, launched, duration = build(
        cores=1, waits=RECEIVER_WAITS
    )
    duration[0] = 6.0
    scheduler.submit(Task(stage, 0, ["A0"]))
    scheduler.submit(Task(stage, 1, ["A1"]))
    scheduler.submit(Task(stage, 2, ["A0", "A1"]))
    sim.run()
    third = [entry for entry in launched if entry[0].partition == 2]
    # It waited for an A slot (freed at t=6) instead of escaping to B.
    assert third[0][1] in ("A0", "A1")
    assert third[0][2] == pytest.approx(6.0)


def test_host_local_preferred_over_earlier_non_local():
    """A host-local task beats an earlier-submitted remote-only task for
    a slot on its preferred host when both are eligible."""
    sim, scheduler, stage, launched, duration = build(cores=1)
    duration[0] = 2.0
    # Fill every slot first.
    for index, host in enumerate(("A0", "A1", "B0", "B1")):
        scheduler.submit(Task(stage, index, [host]))
    remote = scheduler.submit(Task(stage, 10, ["B0"]))
    local = scheduler.submit(Task(stage, 11, ["A0"]))
    sim.run()
    a0_tasks = [e for e in launched if e[1] == "A0"]
    # At t=2 A0 frees; the host-local task 11 takes it, not task 10.
    assert [e[0].partition for e in a0_tasks] == [0, 11]


def test_spread_across_hosts_for_no_pref_tasks():
    sim, scheduler, stage, launched, duration = build(cores=2)
    duration[0] = 10.0
    for index in range(4):
        scheduler.submit(Task(stage, index, []))
    sim.run(until=1.0)
    hosts = [host for _t, host, _time in launched]
    assert len(set(hosts)) == 4  # one per host before doubling up


def test_failing_task_body_fails_completion():
    sim, scheduler, stage, launched, _d = build()

    def exploding(task, host):
        yield sim.timeout(0.1)
        raise RuntimeError("task body crashed")

    scheduler.run_task = exploding
    done = scheduler.submit(Task(stage, 0, []))
    sim.run()
    assert done.failed
    # The slot must have been released.
    assert sum(executor.free for executor in scheduler.executors.values()) == 4


def test_scheduler_requires_executors():
    sim = Simulator()
    topo = Topology()
    topo.add_datacenter("A")
    topo.add_host("A0", "A")
    from repro.errors import NoEligibleExecutorError

    with pytest.raises(NoEligibleExecutorError):
        TaskScheduler(sim, topo, {}, lambda t, h: None)


def test_executor_validation():
    from repro.errors import SchedulerError

    with pytest.raises(SchedulerError):
        Executor("h", cores=0)


def test_tier_timers_do_not_keep_a_finished_task_alive():
    """A task that launches before its locality tiers come due leaves
    their timers behind; those must not pin the task (and through it the
    stage) until the waits run out — 600 s for an AggShuffle receiver."""
    import gc
    import weakref

    sim, scheduler, stage, launched, _d = build(waits=(600.0, 600.0))
    own_stage = FakeStage(scheduler.topology)
    alive = weakref.ref(own_stage)
    done = scheduler.submit(Task(own_stage, 0, preferred_hosts=["A0"]))
    sim.run(until=5.0)
    assert done.value == "A0"
    del done, own_stage
    launched.clear()
    gc.collect()
    assert alive() is None
