"""Inter-job stream scheduler: policies, shares, and determinism (#7).

The policy layer is pure bookkeeping on top of ``submit_job`` — these
tests pin its selection order (every tie breaks on arrival index), its
executor-pool partitioning math, and the end-to-end stream contracts
(all four policies drain any stream; a weight-1 single tenant changes
nothing about a job's outcome).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scheduler.job_scheduler import (
    JOB_POLICIES,
    JobStreamScheduler,
    _Queued,
    run_stream,
)
from repro.workloads.arrivals import (
    ArrivalSpec,
    JobArrival,
    JobTemplate,
    StreamSpec,
    TenantSpec,
    generate_arrivals,
)
from tests.conftest import make_context, small_spec
from tests.scheduler.reference_scan import ScanJobStreamScheduler


def _spec(policy="fifo", tenants=None, max_concurrent=2):
    return StreamSpec(
        arrival=ArrivalSpec(process="poisson", rate_per_minute=120.0,
                            num_jobs=4),
        tenants=tenants or (TenantSpec("solo"),),
        policy=policy,
        max_concurrent=max_concurrent,
    )


def _arrival(index, tenant="solo", size=1e6, home_dc="dc-a", at=0.0):
    template = JobTemplate(
        name=f"job-{index}", shaped_by="WordCount", total_bytes=size,
        home_dc=home_dc,
    )
    return JobArrival(
        index=index, tenant=tenant, arrival_time=at, template=template
    )


def _scheduler(policy="fifo", tenants=None, spec=None):
    context = make_context(spec=spec)
    return JobStreamScheduler(context, _spec(policy=policy, tenants=tenants))


def test_unknown_policy_rejected():
    context = make_context()
    with pytest.raises(ConfigurationError):
        JobStreamScheduler(context, _spec(policy="lottery"))
    context.shutdown()


def _next(scheduler):
    """The job that would admit next (head of the selected heap)."""
    return scheduler._select()[0][-1].arrival


def test_fifo_selects_lowest_arrival_index():
    scheduler = _scheduler("fifo")
    for index in (3, 1, 2):
        scheduler._enqueue(_Queued(_arrival(index), 0.0))
    assert _next(scheduler).index == 1


def test_sjf_selects_smallest_estimated_bytes_then_index():
    scheduler = _scheduler("sjf")
    scheduler._enqueue(_Queued(_arrival(0, size=9e6), 0.0))
    scheduler._enqueue(_Queued(_arrival(2, size=2e6), 0.0))
    scheduler._enqueue(_Queued(_arrival(1, size=2e6), 0.0))
    assert _next(scheduler).index == 1


def test_fair_selects_least_weighted_service_tenant():
    tenants = (TenantSpec("heavy", weight=4.0), TenantSpec("light", weight=1.0))
    scheduler = _scheduler("fair", tenants=tenants)
    scheduler._enqueue(_Queued(_arrival(0, tenant="heavy"), 0.0))
    scheduler._enqueue(_Queued(_arrival(1, tenant="light"), 0.0))
    # Equal raw service 8e6: heavy's *weighted* service is 2e6 < 8e6.
    scheduler._service["heavy"] = 8e6
    scheduler._service["light"] = 8e6
    assert _next(scheduler).tenant == "heavy"
    # Tip the balance: heavy now owes more per unit weight.
    scheduler._service["heavy"] = 40e6
    assert _next(scheduler).tenant == "light"


def test_fair_shares_partition_hosts_proportionally():
    tenants = (TenantSpec("big", weight=3.0), TenantSpec("small", weight=1.0))
    scheduler = _scheduler(
        "fair", tenants=tenants,
        spec=small_spec(datacenters=("dc-a", "dc-b"), workers_per_datacenter=2),
    )
    shares = scheduler._shares
    assert len(shares["big"]) == 3
    assert len(shares["small"]) == 1
    assert not (shares["big"] & shares["small"])
    assert len(shares["big"] | shares["small"]) == 4


def test_fair_shares_wrap_when_tenants_outnumber_hosts():
    tenants = tuple(TenantSpec(f"t{i}") for i in range(5))
    scheduler = _scheduler(
        "fair", tenants=tenants,
        spec=small_spec(datacenters=("dc-a",), workers_per_datacenter=2),
    )
    shares = scheduler._shares
    # Every tenant still gets exactly one host, round-robin.
    assert all(len(hosts) == 1 for hosts in shares.values())
    assert len(set().union(*shares.values())) == 2


def test_pack_confines_jobs_to_their_home_datacenter():
    scheduler = _scheduler("pack")
    context = scheduler.context
    hosts = scheduler._hosts_for(_arrival(0, home_dc="dc-b"))
    assert hosts
    assert all(
        context.topology.datacenter_of(host) == "dc-b" for host in hosts
    )


@pytest.mark.parametrize("policy", JOB_POLICIES)
def test_every_policy_drains_a_generated_stream(policy):
    tenants = (
        TenantSpec("prod", weight=4.0, share=1.0),
        TenantSpec("batch", weight=1.0, share=2.0),
    )
    spec = StreamSpec(
        arrival=ArrivalSpec(process="poisson", rate_per_minute=120.0,
                            num_jobs=5),
        tenants=tenants,
        policy=policy,
        max_concurrent=2,
    )
    context = make_context(
        spec=small_spec(datacenters=("dc-a", "dc-b"))
    )
    arrivals = generate_arrivals(
        spec, ("dc-a", "dc-b"), context.randomness.child("stream")
    )
    result = run_stream(context, spec, arrivals)
    context.shutdown()
    assert result.policy == policy
    assert result.jobs_submitted == 5
    assert result.jobs_completed == 5
    assert result.jobs_failed == 0
    assert result.duration > 0
    completed = sum(
        row["jobs_completed"] for row in result.tenants.values()
    )
    assert completed == 5


class _Read:
    """Stands in for a ``JobArrival`` and counts every read of it: a
    scheduler examines a waiting job by reading its index, tenant or
    template."""

    def __init__(self, arrival, reads):
        self._arrival = arrival
        self._reads = reads

    def __getattr__(self, name):
        self._reads.append(name)
        return getattr(self._arrival, name)


def _saturated_stream(scheduler_class, policy, jobs=300):
    """A seeded two-tenant stream arriving ~10x faster than two slots
    drain it: admission order, deepest backlog, result, and how often
    the scheduler read an arrival."""
    spec = StreamSpec(
        arrival=ArrivalSpec(
            process="bursty", rate_per_minute=2400.0, num_jobs=jobs
        ),
        tenants=(
            TenantSpec("prod", weight=3.0, share=1.0),
            TenantSpec("batch", weight=1.0, share=2.0),
        ),
        policy=policy,
        max_concurrent=2,
    )
    context = make_context(seed=7)
    arrivals = generate_arrivals(
        spec, ("dc-a", "dc-b"), context.randomness.child("stream")
    )
    admitted = []
    reads = []

    class Recording(scheduler_class):
        deepest = 0

        def _admit(self, queued):
            admitted.append(queued.arrival.index)
            waiting = sum(self.counters.submitted.values()) - len(admitted)
            self.deepest = max(self.deepest, waiting)
            super()._admit(queued)

    scheduler = Recording(context, spec)
    result = scheduler.run([_Read(arrival, reads) for arrival in arrivals])
    context.shutdown()
    assert sorted(admitted) == list(range(jobs))
    return admitted, scheduler.deepest, result, len(reads)


@pytest.mark.parametrize("policy", JOB_POLICIES)
def test_heaps_admit_in_the_scan_s_order_at_a_cost_the_backlog_does_not_set(
    policy,
):
    """Per-policy heaps vs the backlog scan they replaced
    (``reference_scan.ScanJobStreamScheduler``): the same jobs admitted
    in the same order and ``==`` results, on a stream whose backlog is
    deep enough for every policy to reorder it — and an admission reads
    the admitted job and nothing else in the queue, so reads of
    arrivals are a constant per job, where the scan read every waiting
    job every time."""
    admitted, deepest, result, reads = _saturated_stream(
        JobStreamScheduler, policy
    )
    scanned, _deepest, expected, scan_reads = _saturated_stream(
        ScanJobStreamScheduler, policy
    )
    assert admitted == scanned
    assert result == expected
    assert result.jobs_completed == 300
    assert deepest > 100
    if policy in ("fair", "sjf"):
        assert admitted != sorted(admitted)
    _admitted, _deepest, _result, reads_of_half = _saturated_stream(
        JobStreamScheduler, policy, jobs=150
    )
    assert reads == 2 * reads_of_half <= 12 * 300
    assert scan_reads > 10 * reads


def test_empty_stream_finishes_immediately():
    context = make_context()
    result = run_stream(context, _spec(), [])
    context.shutdown()
    assert result.jobs_submitted == 0
    assert result.jobs_completed == 0
    assert result.duration == 0.0


def test_weight_one_tenant_job_is_identical_to_untenanted():
    """Byte-identity floor for the whole refactor: labelling a job with
    a weight-1 tenant must not change its timing or traffic at all."""

    def run(tenant):
        context = make_context()
        rdd = context.parallelize(
            [(i % 3, i) for i in range(24)], 4
        ).reduce_by_key(lambda a, b: a + b, num_partitions=3)
        handle = context.submit_job(rdd, "collect", tenant=tenant)
        context.sim.run_until_event(handle.process)
        snapshot = (
            context.sim.now,
            context.traffic.total_bytes,
            context.traffic.cross_dc_bytes,
            sorted(handle.process.value),
        )
        context.shutdown()
        return snapshot

    assert run(None) == run("solo")
