"""Locality-tier wake-ups fire when the eligibility predicate says so.

The wake-up timer used to aim at ``(submit + host_wait) + dc_wait`` while
eligibility tested ``now - submit >= host_wait + dc_wait``.  One ulp
apart, the wake fired, launched nothing and planned no successor, so a
receiver waiting for its any-datacenter tier at the tail of a stream was
never placed (benchmarks/e2e/README.md, "Found while building").
"""

import math
import random

import pytest

from repro.analysis.sanitizer import reconcile_run
from repro.cluster.context import ClusterContext
from repro.config import SimulationConfig
from repro.experiments.runner import ExperimentPlan
from repro.experiments.schemes import Scheme, config_for_scheme
from repro.scheduler.job_scheduler import run_stream
from repro.scheduler.task import Task
from repro.simulation.random_source import RandomSource
from repro.workloads import workload_by_name
from tests.scheduler.test_task_scheduler import build

from repro.workloads.arrivals import (
    ArrivalSpec,
    StreamSpec,
    TenantSpec,
    generate_arrivals,
)


def test_two_tenant_fair_aggshuffle_stream_completes():
    """``batch``'s pool excludes the elected aggregator datacenter, so
    its receivers wait out the transfer service's datacenter wait
    (``RECEIVER_WAITS``) and depend on the tier wake-up alone; with
    input seed 7000 that wake-up landed one ulp early and the stream
    spun until the liveness watchdog killed it."""
    seed = 7000
    cluster = ExperimentPlan().cluster
    spec = StreamSpec(
        arrival=ArrivalSpec("poisson", 60.0, 10),
        tenants=(TenantSpec("prod", weight=2.0), TenantSpec("batch", weight=1.0)),
        policy="fair",
    )
    arrivals = generate_arrivals(
        spec, cluster.datacenters, RandomSource(seed).child("stream")
    )
    config = config_for_scheme(
        Scheme.AGGSHUFFLE,
        workload_by_name("wordcount").spec,
        seed,
        SimulationConfig(max_wall_seconds=30.0),
    )
    context = ClusterContext(cluster, config)
    stream = run_stream(context, spec, arrivals)
    context.shutdown()
    assert (stream.jobs_submitted, stream.jobs_completed) == (10, 10)
    assert reconcile_run(context) == []


def _submit_time_where(sum_is, wait):
    """A submit time whose ``submit + wait`` is early/late/exact
    relative to the first instant ``t - submit >= wait`` holds."""
    rng = random.Random(14)
    while True:
        submit = rng.random() * 1000.0
        aim = submit + wait
        holds_at_aim = aim - submit >= wait
        holds_before = math.nextafter(aim, -math.inf) - submit >= wait
        kind = "early" if not holds_at_aim else "late" if holds_before else "exact"
        if kind == sum_is:
            return submit


@pytest.mark.parametrize("wait", (0.5, 2.0, 47.0, 600.5))
@pytest.mark.parametrize("sum_is", ("early", "exact", "late"))
def test_tier_wakeup_fires_at_the_first_eligible_instant(sum_is, wait):
    """Invariant: after any dispatch, a pending task with a tier still
    closed by the eligibility predicate and a free slot in reach has a
    wake planned — so it launches as the tier opens, however
    ``submit + wait`` rounds."""
    if sum_is == "late" and wait < 10:
        pytest.skip("submit + wait never overshoots for waits this small")
    sim, scheduler, stage, launched, duration = build(
        cores=1, waits=(wait, 1e9)
    )
    duration[0] = 1e6  # A0 stays busy; A1 is the datacenter-local fallback
    submit = _submit_time_where(sum_is, wait)
    scheduler.submit(Task(stage, 0, ["A0"]))
    sim.call_at(submit, lambda: scheduler.submit(Task(stage, 1, ["A0"])))
    sim.run(until=submit + wait + 10.0)
    (launch,) = [entry for entry in launched if entry[0].partition == 1]
    assert launch[1] == "A1"
    # The timer is armed with a delay, so it may land an ulp or two past
    # the first eligible instant — never before it and never not at all.
    launched_at = launch[2]
    assert launched_at - submit >= wait
    two_ulps_earlier = math.nextafter(
        math.nextafter(math.nextafter(launched_at, 0.0), 0.0), 0.0
    )
    assert not two_ulps_earlier - submit >= wait
