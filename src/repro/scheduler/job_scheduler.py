"""Inter-job scheduling for multi-tenant job streams.

The single-job harness drives one :class:`DAGScheduler` to completion;
a shared cluster instead sees a *stream* of jobs (generated by
:mod:`repro.workloads.arrivals`) and must decide **which queued job runs
next** and **which slice of the executor pool it may use**.  This module
adds that layer without touching the per-job machinery: every admitted
job gets its own ``DAGScheduler`` (via ``ClusterContext.submit_job``)
stamped with its tenant, and all live jobs share the one
``TaskScheduler``, network fabric, and simulation kernel — contending
for slots and WAN bandwidth exactly as concurrent Spark jobs would.

Pluggable admission policies (registry :data:`JOB_POLICIES`):

* ``fifo`` — arrival order, whole cluster for every job.
* ``fair`` — weighted fair queuing across tenants: the tenant with the
  least weighted service admits next, and each tenant's jobs are
  confined to a static executor-pool share proportional to its weight
  (so a heavy tenant cannot starve a light one of slots, while the
  per-tenant WAN weights shape the bandwidth side).
* ``sjf``  — shortest job first by estimated input bytes.
* ``pack`` — arrival order, but each job is packed into its home
  datacenter's hosts (locality packing: intra-DC shuffles, WAN only for
  driver I/O).

Policies are deterministic: every tie breaks on arrival index, so a
stream's outcome is a pure function of (spec, seed, cluster).

Waiting jobs sit in heaps keyed by the policy's order — one heap per
tenant under ``fair``, one for everybody otherwise — so an admission
costs a look at each tenant's service and one pop, not a scan of the
backlog (``tests/scheduler/test_job_scheduler.py`` holds the admission
sequence equal to the scan's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.metrics.tenants import TenantCounters
from repro.workloads.arrivals import JobArrival, StreamSpec, TenantSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext

JOB_POLICIES = ("fifo", "fair", "sjf", "pack")


@dataclass
class StreamResult:
    """Everything measured about one stream run."""

    policy: str
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    duration: float
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)


class _Queued:
    __slots__ = ("arrival", "arrived_at")

    def __init__(self, arrival: JobArrival, arrived_at: float) -> None:
        self.arrival = arrival
        self.arrived_at = arrived_at


class JobStreamScheduler:
    """Admits a stream of jobs onto one shared cluster context."""

    def __init__(self, context: ClusterContext, spec: StreamSpec) -> None:
        spec.validate()
        if spec.policy not in JOB_POLICIES:
            raise ConfigurationError(
                f"unknown job policy {spec.policy!r} "
                f"(choose from: {', '.join(JOB_POLICIES)})"
            )
        self.context = context
        self.spec = spec
        self.counters = TenantCounters()
        self._tenants: Dict[str, TenantSpec] = {
            tenant.name: tenant for tenant in spec.tenants
        }
        for tenant in spec.tenants:
            context.set_tenant_weight(tenant.name, tenant.weight)
        # Waiting jobs: tenant -> heap of (policy order..., arrival
        # sequence, job); every tenant shares the "" heap unless the
        # policy is fair.  The sequence number keeps equal keys in
        # arrival order and the jobs themselves out of comparisons.
        fair = spec.policy == "fair"
        self._queues: Dict[str, list] = {
            name: [] for name in (self._tenants if fair else ("",))
        }
        self._queued = 0
        self._enqueued = 0
        self._live = 0
        self._remaining = 0
        self._failed = 0
        self._started_at = 0.0
        self._last_done_at = 0.0
        self._finished = None
        # Weighted-fair bookkeeping: bytes admitted per tenant.
        self._service: Dict[str, float] = {
            tenant.name: 0.0 for tenant in spec.tenants
        }
        # Static executor-pool shares (fair policy only).
        self._shares: Dict[str, frozenset] = (
            self._tenant_shares() if spec.policy == "fair" else {}
        )

    # ------------------------------------------------------------------
    # Executor-pool partitioning
    # ------------------------------------------------------------------
    def _tenant_shares(self) -> Dict[str, frozenset]:
        """Contiguous host slices proportional to tenant weight.

        Every tenant gets at least one host; rounding remainders go to
        the heaviest tenants first (deterministic: weight desc, then
        spec order).  With more tenants than hosts, tenants wrap around
        and share hosts round-robin.
        """
        hosts = self.context.spec.worker_names()
        tenants = list(self.spec.tenants)
        if len(tenants) >= len(hosts):
            return {
                tenant.name: frozenset({hosts[index % len(hosts)]})
                for index, tenant in enumerate(tenants)
            }
        total = sum(tenant.weight for tenant in tenants)
        spare = len(hosts) - len(tenants)  # beyond the 1-host floor
        quotas = [
            1 + int(spare * tenant.weight / total) for tenant in tenants
        ]
        remainders = sorted(
            range(len(tenants)),
            key=lambda i: (
                -(spare * tenants[i].weight / total % 1.0),
                -tenants[i].weight,
                i,
            ),
        )
        for index in remainders:
            if sum(quotas) >= len(hosts):
                break
            quotas[index] += 1
        shares: Dict[str, frozenset] = {}
        cursor = 0
        for tenant, quota in zip(tenants, quotas):
            shares[tenant.name] = frozenset(hosts[cursor:cursor + quota])
            cursor += quota
        return shares

    def _hosts_for(self, arrival: JobArrival) -> Optional[frozenset]:
        if self.spec.policy == "fair":
            return self._shares.get(arrival.tenant)
        if self.spec.policy == "pack":
            home = arrival.template.home_dc
            hosts = self.context.topology.hosts_in(home)
            workers = frozenset(
                host for host in hosts if host in self.context.executors
            )
            return workers or None
        return None

    # ------------------------------------------------------------------
    # Policy: which queued job admits next
    # ------------------------------------------------------------------
    def _enqueue(self, queued: _Queued) -> None:
        arrival = queued.arrival
        policy = self.spec.policy
        order = (arrival.index, self._enqueued, queued)
        if policy == "sjf":
            order = (arrival.template.estimated_input_bytes,) + order
        heappush(self._queues[arrival.tenant if policy == "fair" else ""], order)
        self._queued += 1
        self._enqueued += 1

    def _select(self) -> list:
        """The heap whose head admits next: under ``fair`` that of the
        waiting tenant with the least weighted service (ties: spec
        order), else the one heap, whose order is the policy — arrival
        index, after estimated input bytes under ``sjf``."""
        if self.spec.policy != "fair":
            return self._queues[""]
        service = self._service
        tenants = self._tenants
        # min() keeps the first of equal keys, and _queues is in spec
        # order.
        return self._queues[
            min(
                (name for name, heap in self._queues.items() if heap),
                key=lambda name: service[name] / tenants[name].weight,
            )
        ]

    # ------------------------------------------------------------------
    # Stream execution
    # ------------------------------------------------------------------
    def run(self, arrivals: List[JobArrival]) -> StreamResult:
        """Run the whole stream to completion; returns its measurements."""
        sim = self.context.sim
        self._started_at = sim.now
        self._last_done_at = sim.now
        self._remaining = len(arrivals)
        self._finished = sim.event(name="stream:done")
        if not arrivals:
            self._finished.succeed(None)
        for arrival in arrivals:
            sim.call_at(
                self._started_at + arrival.arrival_time,
                lambda a=arrival: self._on_arrival(a),
            )
        sim.run_until_event(self._finished)
        return StreamResult(
            policy=self.spec.policy,
            jobs_submitted=len(arrivals),
            jobs_completed=len(arrivals) - self._failed,
            jobs_failed=self._failed,
            duration=self._last_done_at - self._started_at,
            tenants=self.counters.report(self.context.traffic),
        )

    def _on_arrival(self, arrival: JobArrival) -> None:
        now = self.context.sim.now
        self.counters.note_submitted(arrival.tenant, now)
        self._enqueue(_Queued(arrival, now))
        self._pump()

    def _pump(self) -> None:
        while self._queued and self._live < self.spec.max_concurrent:
            self._queued -= 1
            self._admit(heappop(self._select())[-1])

    def _admit(self, queued: _Queued) -> None:
        arrival = queued.arrival
        self._live += 1
        self._service[arrival.tenant] += (
            arrival.template.estimated_input_bytes
        )
        rdd = arrival.template.build(self.context)
        handle = self.context.submit_job(
            rdd,
            "collect",
            tenant=arrival.tenant,
            allowed_hosts=self._hosts_for(arrival),
        )
        handle.process.add_callback(
            lambda event, q=queued: self._on_done(q, event)
        )

    def _on_done(self, queued: _Queued, event) -> None:
        self._live -= 1
        self._remaining -= 1
        now = self.context.sim.now
        self._last_done_at = now
        if event.ok:
            self.counters.note_completed(
                queued.arrival.tenant, queued.arrived_at, now
            )
        else:
            # The stream absorbs the job failure: it counts against the
            # tenant's completions but never aborts the other jobs.
            self._failed += 1
        if self._remaining == 0:
            self._finished.succeed(None)
        else:
            self._pump()


def run_stream(
    context: ClusterContext,
    spec: StreamSpec,
    arrivals: List[JobArrival],
) -> StreamResult:
    """Convenience wrapper: schedule + run one stream on ``context``."""
    return JobStreamScheduler(context, spec).run(arrivals)
