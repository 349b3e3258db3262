"""Seeded multi-tenant job-arrival generation for shared-cluster runs.

A *stream* is a sequence of small analytics jobs arriving over simulated
time, each owned by a tenant.  Streams are described declaratively
(:class:`StreamSpec`) and expanded into concrete :class:`JobArrival`
lists by :func:`generate_arrivals`, which draws every random quantity
from one named :class:`~repro.simulation.random_source.RandomSource`
stream — so the same ``(spec, seed)`` pair always yields the identical
schedule, whether the run executes serially, fanned out per cell, or
sharded (property-tested in ``tests/experiments``).

Arrival processes
-----------------
* ``poisson`` — memoryless inter-arrival gaps at ``rate_per_minute``.
* ``bursty``  — a trace-shaped on/off modulation: a fraction of jobs
  arrive inside high-rate bursts (rate x ``burst_factor``), the rest in
  quiet valleys, approximating the diurnal production traces wide-area
  analytics clusters see.

Job shapes are scaled-down versions of the Table I workload specs: each
arrival carries a :class:`JobTemplate` naming the spec that shaped it, a
deterministic byte volume (log-uniform skew, so SJF has something to
exploit), and a home datacenter (what the locality-packing policy uses).
The template builds a self-contained parallelize -> shuffle -> collect
program, cheap enough that thousands of queued jobs simulate quickly
while still moving tenant-attributed bytes through the fabric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource
from repro.workloads.base import merge_counts
from repro.workloads.specs import ALL_SPECS, WorkloadSpec, spec_by_name

ARRIVAL_PROCESSES = ("poisson", "bursty")

# Mini-job scale: a stream job moves about 1/64th of its shaping spec's
# bytes, spread over a handful of partitions — big enough to contend on
# WAN links, small enough that 10k-job streams stay tractable.
_SCALE_DOWN = 64.0
_JOB_MAP_PARTITIONS = 4
_JOB_REDUCE_PARTITIONS = 4
_RECORDS_PER_PARTITION = 2


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a shared cluster.

    ``weight`` drives both the WAN fair-share weighting (every flow of
    the tenant's jobs gets this weight in the max-min allocation) and
    the fair policy's executor-pool share; ``share`` is the tenant's
    relative probability of owning each arriving job (the workload mix
    knob, independent of priority).
    """

    name: str
    weight: float = 1.0
    share: float = 1.0

    def validate(self) -> None:
        if not self.name:
            raise WorkloadError("tenant name must be non-empty")
        for field_name in ("weight", "share"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value > 0):
                raise WorkloadError(
                    f"tenant {self.name!r}: {field_name} must be finite "
                    f"and > 0, got {value}"
                )


@dataclass(frozen=True)
class ArrivalSpec:
    """How jobs arrive over simulated time."""

    process: str = "poisson"
    rate_per_minute: float = 12.0
    num_jobs: int = 100
    # Bursty-process shape: ``burst_fraction`` of the jobs arrive in
    # bursts running at ``burst_factor`` x the base rate.
    burst_factor: float = 4.0
    burst_fraction: float = 0.25
    # Workload mix: names of the Table I specs shaping job sizes
    # (empty = all five).
    mix: Tuple[str, ...] = ()

    def validate(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise WorkloadError(
                f"unknown arrival process {self.process!r} "
                f"(choose from: {', '.join(ARRIVAL_PROCESSES)})"
            )
        if not (math.isfinite(self.rate_per_minute) and self.rate_per_minute > 0):
            raise WorkloadError(
                "arrival rate must be finite and > 0 jobs/min, "
                f"got {self.rate_per_minute}"
            )
        if self.num_jobs < 1:
            raise WorkloadError(
                f"num_jobs must be >= 1, got {self.num_jobs}"
            )
        if not (math.isfinite(self.burst_factor) and self.burst_factor >= 1.0):
            raise WorkloadError(
                f"burst_factor must be finite and >= 1, got {self.burst_factor}"
            )
        if not 0.0 <= self.burst_fraction <= 1.0:
            raise WorkloadError(
                f"burst_fraction must be in [0, 1], got {self.burst_fraction}"
            )
        for name in self.mix:
            spec_by_name(name)  # raises WorkloadError on unknown names


@dataclass(frozen=True)
class JobTemplate:
    """A concrete mini job shaped by one Table I workload spec."""

    name: str
    shaped_by: str
    total_bytes: float
    map_partitions: int = _JOB_MAP_PARTITIONS
    reduce_partitions: int = _JOB_REDUCE_PARTITIONS
    home_dc: str = ""

    @property
    def estimated_input_bytes(self) -> float:
        """What SJF orders on (known at submission, like input stats)."""
        return self.total_bytes

    def build(self, context) -> Any:
        """The job's final RDD on ``context``: a parallelize -> keyed
        shuffle -> collect program whose bytes match the template."""
        num_records = self.map_partitions * _RECORDS_PER_PARTITION
        per_record = self.total_bytes / num_records
        records = [
            (index % self.reduce_partitions, SizedRecord(1, per_record))
            for index in range(num_records)
        ]
        return (
            context.parallelize(records, num_slices=self.map_partitions)
            .reduce_by_key(merge_counts, num_partitions=self.reduce_partitions)
        )


@dataclass(frozen=True)
class JobArrival:
    """One job of the stream: who, when, and what shape."""

    index: int
    tenant: str
    arrival_time: float
    template: JobTemplate


@dataclass(frozen=True)
class StreamSpec:
    """A full multi-tenant stream: arrivals + tenants + policy knobs.

    Picklable and purely declarative, so experiment plans carrying one
    ship unchanged to worker processes; the arrivals themselves are
    regenerated deterministically inside each cell.
    """

    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    tenants: Tuple[TenantSpec, ...] = (TenantSpec("default"),)
    policy: str = "fifo"
    max_concurrent: int = 4

    def validate(self) -> None:
        self.arrival.validate()
        if not self.tenants:
            raise WorkloadError("a stream needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate tenant names: {names}")
        for tenant in self.tenants:
            tenant.validate()
        if self.max_concurrent < 1:
            raise WorkloadError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )


def _mix_specs(arrival: ArrivalSpec) -> Sequence[WorkloadSpec]:
    if not arrival.mix:
        return ALL_SPECS
    return [spec_by_name(name) for name in arrival.mix]


def generate_arrivals(
    spec: StreamSpec,
    datacenters: Sequence[str],
    randomness: RandomSource,
) -> List[JobArrival]:
    """Expand ``spec`` into a concrete, deterministic arrival schedule.

    Every draw comes from the single ``"arrivals"`` stream of
    ``randomness``, in a fixed order per job — adding draws elsewhere in
    the simulation never perturbs the schedule, and the same seed yields
    byte-identical arrivals in every runner (serial, parallel, sharded).
    """
    spec.validate()
    if not datacenters:
        raise WorkloadError("generate_arrivals: need at least one datacenter")
    arrival = spec.arrival
    rng = randomness.stream("arrivals")
    shapes = _mix_specs(arrival)
    tenant_names = [tenant.name for tenant in spec.tenants]
    tenant_shares = [tenant.share for tenant in spec.tenants]
    base_rate = arrival.rate_per_minute / 60.0  # jobs per second

    arrivals: List[JobArrival] = []
    now = 0.0
    for index in range(arrival.num_jobs):
        if arrival.process == "bursty" and rng.random() < arrival.burst_fraction:
            rate = base_rate * arrival.burst_factor
        else:
            rate = base_rate
        now += rng.expovariate(rate)
        tenant = rng.choices(tenant_names, weights=tenant_shares, k=1)[0]
        shape = shapes[rng.randrange(len(shapes))]
        # Log-uniform size skew over [1/4x, 4x] of the scaled-down spec
        # volume: a heavy tail SJF can exploit and FIFO suffers under.
        size_factor = 4.0 ** rng.uniform(-1.0, 1.0)
        total_bytes = shape.total_input_bytes / _SCALE_DOWN * size_factor
        home_dc = datacenters[rng.randrange(len(datacenters))]
        template = JobTemplate(
            name=f"job{index}:{shape.name.lower()}",
            shaped_by=shape.name,
            total_bytes=total_bytes,
            home_dc=home_dc,
        )
        arrivals.append(
            JobArrival(
                index=index,
                tenant=tenant,
                arrival_time=now,
                template=template,
            )
        )
    return arrivals
