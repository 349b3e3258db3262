"""The indexed dispatcher against the scan it replaced.

``TaskScheduler`` answers "which task on which host next?" from an index
of buckets and the free hosts under them; ``reference_scan.ScanTaskScheduler``
is the pending x free-hosts double loop it used to be.  Both must launch
the same tasks on the same hosts at the same simulated instants, and a
dispatch must cost O(hosts), not O(pending x free hosts).
"""

import random
import sys

import pytest

from repro.config import HealthConfig, SchedulingConfig
from repro.failures.health import BlacklistTracker
from repro.metrics.perf import HealthCounters
from repro.network.topology import GBPS, Topology
from repro.scheduler.task import Task
from repro.scheduler.task_scheduler import Executor, TaskScheduler
from repro.simulation import Simulator

from tests.scheduler.reference_scan import ScanTaskScheduler

DATACENTERS = ("A", "B", "C")
HOSTS_PER_DC = 3
HOST_WAITS = (None, 0.0, 0.3, 0.5, 2.0)
DC_WAITS = (None, 0.0, 1.0, 3.7, 1000.0)


class _Stage:
    """Stand-in for Stage: the scheduler reads only ``stage_id``."""

    def __init__(self, stage_id):
        self.stage_id = stage_id


def _topology():
    topology = Topology()
    for dc in DATACENTERS:
        topology.add_datacenter(dc)
        for index in range(HOSTS_PER_DC):
            topology.add_host(f"{dc}{index}", dc, access_bandwidth=GBPS)
    for i, src in enumerate(DATACENTERS):
        for dst in DATACENTERS[i + 1:]:
            topology.connect_datacenters(src, dst, GBPS)
    return topology


def _scenario(seed):
    """A seeded mix of submissions and faults, as plain data."""
    rng = random.Random(seed)
    hosts = [f"{dc}{i}" for dc in DATACENTERS for i in range(HOSTS_PER_DC)]
    doomed = rng.sample(hosts, rng.choice((0, 1, 2, 4)))
    shares = [
        None,
        frozenset(h for h in hosts if h[0] == "A"),
        frozenset(h for h in hosts if h[0] in "BC"),
        # A share that dies completely once ``doomed`` is gone.
        frozenset(doomed) or None,
    ]
    actions = []
    clock = 0.0
    for index in range(rng.randrange(20, 70)):
        # Bursts (same instant) and irrational-looking gaps, so tier
        # instants land on every side of a float rounding boundary.
        if rng.random() < 0.6:
            clock += rng.random() * rng.choice((0.01, 0.7, 3.1))
        shape = rng.random()
        if shape < 0.25:
            preferred = []
        elif shape < 0.55:
            preferred = [rng.choice(hosts)]
        elif shape < 0.8:  # several hosts, usually several datacenters
            preferred = rng.sample(hosts, rng.randrange(2, 5))
        else:  # pinned to hosts that will die, or already have
            preferred = list(doomed) or [rng.choice(hosts)]
        actions.append(
            (
                clock,
                "submit",
                dict(
                    partition=index,
                    preferred=preferred,
                    host_wait=rng.choice(HOST_WAITS),
                    dc_wait=rng.choice(DC_WAITS),
                    allowed=rng.choice(shares),
                    stage_id=rng.randrange(3),
                    duration=rng.choice((0.05, 0.4, 1.3, 6.0)) * rng.random(),
                    fails=rng.random() < 0.1,
                ),
            )
        )
    horizon = clock
    for host in doomed:
        actions.append((rng.random() * horizon, "remove", host))
    for _ in range(rng.choice((0, 0, 2, 5))):
        actions.append((rng.random() * horizon, "exclude", rng.choice(hosts)))
    if rng.random() < 0.2:  # every host vetoed: the override must kick in
        moment = rng.random() * horizon
        actions.extend((moment, "exclude", host) for host in hosts)
    for _ in range(rng.choice((0, 3))):
        actions.append(
            (
                rng.random() * horizon,
                "task_failure",
                (rng.choice(hosts), rng.randrange(3)),
            )
        )
    actions.sort(key=lambda action: action[0])
    return dict(
        cores=rng.choice((1, 2)),
        wait_host=rng.choice((0.0, 0.5, 2.0)),
        wait_dc=rng.choice((0.0, 1.5, 45.0)),
        blacklist_timeout=rng.choice((0.8, 5.0, 60.0)),
        actions=actions,
    )


def _run(scheduler_class, scenario):
    """Replay ``scenario``; returns launches, outcomes and the end clock."""
    sim = Simulator()
    topology = _topology()
    executors = {
        name: Executor(name, scenario["cores"])
        for name in topology.all_host_names()
    }
    blacklist = BlacklistTracker(
        HealthConfig(
            blacklist_enabled=True,
            blacklist_timeout=scenario["blacklist_timeout"],
        ),
        HealthCounters(),
        topology,
        sim,
    )
    launches = []
    specs = {}

    def run_task(task, host):
        spec = specs[task.partition]
        launches.append((sim.now, task.partition, host))
        yield sim.timeout(spec["duration"])
        if spec["fails"]:
            raise RuntimeError(f"task {task.partition} crashed")
        return host

    scheduler = scheduler_class(
        sim,
        topology,
        executors,
        SchedulingConfig(
            locality_wait_host=scenario["wait_host"],
            locality_wait_datacenter=scenario["wait_dc"],
        ),
        run_task,
        blacklist=blacklist,
    )
    completions = {}

    def apply(kind, payload):
        if kind == "submit":
            specs[payload["partition"]] = payload
            task = Task(
                _Stage(payload["stage_id"]),
                payload["partition"],
                payload["preferred"],
            )
            task.locality_wait_host = payload["host_wait"]
            task.locality_wait_datacenter = payload["dc_wait"]
            task.allowed_hosts = payload["allowed"]
            completions[payload["partition"]] = scheduler.submit(task)
        elif kind == "remove":
            if len(scheduler.executors) > 1:
                scheduler.remove_executor(payload)
        elif kind == "exclude":
            blacklist.exclude_host(payload)
        else:
            blacklist.note_task_failure(*payload)

    for moment, kind, payload in scenario["actions"]:
        sim.call_at(moment, lambda k=kind, p=payload: apply(k, p))
    sim.run()
    assert scheduler.pending_count == 0 and scheduler.running_count == 0
    outcomes = {
        partition: ("failed" if done.failed else done.value)
        for partition, done in completions.items()
    }
    assert scheduler.total_free_slots() == sum(
        executor.cores for executor in executors.values()
    )
    return launches, outcomes, sim.now


@pytest.mark.parametrize("seed", range(150))
def test_index_places_exactly_like_the_scan(seed):
    scenario = _scenario(seed)
    assert _run(TaskScheduler, scenario) == _run(ScanTaskScheduler, scenario)


def test_scenarios_cover_what_they_claim():
    """The generator reaches requeues, dead shares and total vetoes."""
    relaunched = dead_share = all_vetoed = out_of_dc = 0
    for seed in range(150):
        scenario = _scenario(seed)
        launches, _outcomes, _end = _run(TaskScheduler, scenario)
        partitions = [partition for _t, partition, _h in launches]
        relaunched += len(partitions) != len(set(partitions))
        removed = {p for _t, kind, p in scenario["actions"] if kind == "remove"}
        excluded = [p for _t, kind, p in scenario["actions"] if kind == "exclude"]
        all_vetoed += len(set(excluded)) == len(DATACENTERS) * HOSTS_PER_DC
        for _t, kind, payload in scenario["actions"]:
            if kind != "submit":
                continue
            share = payload["allowed"]
            dead_share += bool(share) and share <= removed
            host = next(h for _t, p, h in launches if p == payload["partition"])
            out_of_dc += bool(payload["preferred"]) and host[0] not in {
                pref[0] for pref in payload["preferred"]
            }
    assert relaunched and dead_share and all_vetoed and out_of_dc


def test_placements_vetoed_counts_decisions_not_scan_visits():
    sim = Simulator()
    topology = _topology()
    executors = {
        name: Executor(name, 1) for name in ("A0", "A1", "B0", "B1")
    }
    counters = HealthCounters()
    blacklist = BlacklistTracker(
        HealthConfig(blacklist_enabled=True), counters, topology, sim
    )
    blacklist.exclude_host("A0")

    def run_task(task, host):
        yield sim.timeout(1.0)
        return host

    scheduler = TaskScheduler(
        sim, topology, executors, SchedulingConfig(), run_task, blacklist
    )
    stage = _Stage(0)
    # Three decisions each skip free A0 for the next host; the fourth
    # finds only A0 free and places nothing, and so does each of the
    # six after it — one count per decision, where the scan counted
    # one per queued task per decision (31 by the end).
    for index in range(4):
        scheduler.submit(Task(stage, index, []))
        assert counters.placements_vetoed == index + 1
    assert scheduler.pending_count == 1
    for index in range(4, 10):
        scheduler.submit(Task(stage, index, []))
    assert counters.placements_vetoed == 10
    sim.run()
    assert executors["A0"].tasks_run == 0


def _count_calls(fn):
    """Python + C function calls made while ``fn()`` runs (deterministic)."""
    calls = 0

    def tracer(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(tracer)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("pending", (250, 1000))
def test_dispatch_work_follows_free_hosts_not_pending_tasks(pending):
    """AggShuffle's regime: receivers queued for a full aggregator
    datacenter while every other datacenter has free slots."""
    sim = Simulator()
    topology = Topology()
    datacenters = [f"dc{i}" for i in range(7)]
    for dc in datacenters:
        topology.add_datacenter(dc)
        for index in range(4):
            topology.add_host(f"{dc}-w{index}", dc, access_bandwidth=GBPS)
    executors = {
        name: Executor(name, 2) for name in topology.all_host_names()
    }

    def run_task(task, host):
        yield sim.timeout(1e9)

    scheduler = TaskScheduler(
        sim, topology, executors, SchedulingConfig(), run_task
    )
    aggregator = [f"dc0-w{index}" for index in range(4)]
    stage = _Stage(0)
    for index in range(8 + pending):
        task = Task(stage, index, aggregator)
        task.locality_wait_host = 0.5
        task.locality_wait_datacenter = 600.0
        scheduler.submit(task)
    sim.run(until=5.0)  # the datacenter tier has opened; nothing fits
    assert scheduler.pending_count == pending
    assert scheduler.total_free_slots() == 48

    calls = _count_calls(scheduler._dispatch)
    assert scheduler.pending_count == pending
    # A look at each host under a non-empty bucket plus bookkeeping; the
    # scan made pending x 24 eligibility checks (>= 6 000) here.
    assert calls <= 4 * len(executors), calls
