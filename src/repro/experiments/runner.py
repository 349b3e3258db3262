"""Run (workload, scheme, seed) cells on the Fig. 6 cluster.

One *cell* = build a fresh simulated cluster, install the generated
input with the skewed block placement, optionally pre-process the input
(Centralized / Iridium-like schemes), run the workload's job, and
snapshot the metrics.

Seeding follows the paper's methodology ("10 iterative runs" of the
same benchmark): the dataset and its block placement are generated once
(``ExperimentPlan.fixed_data_seed``), while the per-run ``seed`` varies
only the environment — bandwidth jitter and injected failures — so the
reported spread is performance variation *over time*, not across
datasets.  Set ``fixed_data_seed=None`` to regenerate data per run
instead.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.builder import ClusterSpec, ec2_six_region_spec
from repro.cluster.context import ClusterContext
from repro.config import SimulationConfig
from repro.metrics.billing import bill_traffic, blob_request_dollars
from repro.rdd.memo import DataMemo
from repro.rdd.size_estimator import Partition
from repro.experiments.placement import skewed_block_placement
from repro.experiments.schemes import Scheme, config_for_scheme, scheme_spec
from repro.simulation.random_source import RandomSource
from repro.workloads.base import Workload
from repro.workloads.specs import WorkloadSpec


@dataclass
class StageRecord:
    """One stage's span inside a run (Fig. 9 raw material)."""

    name: str
    kind: str
    started_at: float
    duration: float


@dataclass
class RunResult:
    """Everything measured about one cell."""

    workload: str
    scheme: Scheme
    seed: int
    duration: float
    job_duration: float
    centralize_duration: float
    cross_dc_megabytes: float
    total_megabytes: float
    cross_dc_by_tag: Dict[str, float]
    # Dollar cost of the run's inter-datacenter traffic (EC2-style
    # egress pricing; see repro.metrics.billing).
    cost_dollars: float = 0.0
    stages: List[StageRecord] = field(default_factory=list)
    injected_failures: int = 0
    action_result: Any = None
    # Substrate perf counters of the run's fabric (solver cost etc.;
    # see repro.metrics.perf) — regressions show up in every bench.
    fabric_perf: Dict[str, float] = field(default_factory=dict)
    # The shuffle backend that moved the data, plus its perf counters
    # (blocks pushed, WAN vs. intra-DC bytes, merge fan-in, ...).
    backend: str = ""
    shuffle_perf: Dict[str, float] = field(default_factory=dict)
    # Fault-injection surface: every injected per-attempt failure across
    # the cell (not just the measured job), chaos events that actually
    # applied, and the recovery counters (relaunches, resubmissions,
    # recomputed tasks, speculation).
    injected_failures_total: int = 0
    chaos_events_applied: int = 0
    recovery: Dict[str, int] = field(default_factory=dict)
    # Health-aware degradation counters (blacklist exclusions, breaker
    # trips, flow retries, re-elections; see repro.metrics.perf).
    health: Dict[str, float] = field(default_factory=dict)
    # Multi-tenant stream runs only (``ExperimentPlan.stream``): the
    # per-tenant report (JCT percentiles, makespan, attributed bytes;
    # see repro.metrics.tenants) and the stream-level outcome.
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)
    stream: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentPlan:
    """Shared parameters of a figure's run matrix."""

    cluster: ClusterSpec = field(default_factory=ec2_six_region_spec)
    seeds: Sequence[int] = tuple(range(10))
    base_config: Optional[SimulationConfig] = None
    keep_action_results: bool = False
    # Seed for data generation and block placement; None regenerates
    # them per run seed (see module docstring).
    fixed_data_seed: Optional[int] = 0
    # Multi-tenant job stream (repro.workloads.arrivals.StreamSpec).
    # When set, the cell runs the stream through the inter-job scheduler
    # instead of the single workload job; the single-job path is
    # untouched (byte-identical) when this stays None.
    stream: Any = None


# Cache of generated input, shared across schemes/seeds of one process.
# Each entry roots its dataset's partitions and owns the memo of every
# pure data-plane step taken over them (repro.rdd.memo), so the cells of
# a matrix row compute and size each partition once between them.
_DATA_CACHE: Dict[Tuple[type, WorkloadSpec, int], DataMemo] = {}


def generated_input(workload: Workload, seed: int) -> List[Partition]:
    """Seed-deterministic input partitions, cached per what generation
    reads: the workload's class, its spec and the seed.

    The partitions are shared by every cell that runs over them and are
    read-only: no RDD function may change a record it is handed.
    """
    key = (type(workload), workload.spec, seed)
    if key not in _DATA_CACHE:
        _DATA_CACHE[key] = DataMemo(
            workload.generate(RandomSource(seed).child(f"data:{workload.name}"))
        )
    return _DATA_CACHE[key].partitions


def clear_data_cache() -> None:
    """Drop every dataset and, with it, everything memoised over it."""
    _DATA_CACHE.clear()


def run_workload_once(
    workload: Workload,
    scheme: Scheme,
    seed: int,
    plan: Optional[ExperimentPlan] = None,
) -> RunResult:
    """Execute one cell and return its measurements."""
    plan = plan if plan is not None else ExperimentPlan()
    config = config_for_scheme(scheme, workload.spec, seed, plan.base_config)
    context = ClusterContext(plan.cluster, config)
    if plan.stream is not None:
        return _run_stream_cell(workload, scheme, seed, plan, context)

    data_seed = plan.fixed_data_seed if plan.fixed_data_seed is not None else seed
    partitions = generated_input(workload, data_seed)
    placement = skewed_block_placement(
        plan.cluster,
        RandomSource(data_seed).child(f"placement:{workload.name}"),
        num_blocks=len(partitions),
    )
    workload.install(context, partitions, placement_hosts=placement)

    spec = scheme_spec(scheme)
    started = context.sim.now
    centralize_duration = 0.0
    if spec.preprocess is not None:
        centralize_duration = spec.preprocess(
            context, workload.input_path, plan.cluster
        )
    action_result = workload.run(context)
    duration = context.sim.now - started
    context.shutdown()

    job = context.metrics.job
    stages = [
        StageRecord(
            name=span.name,
            kind=span.kind,
            started_at=span.submitted_at,
            duration=span.duration,
        )
        for span in job.stages
    ]
    if spec.preprocess is not None and centralize_duration > 0:
        stages.insert(
            0,
            StageRecord(
                name=spec.preprocess_stage_name,
                kind="centralize",
                started_at=started,
                duration=centralize_duration,
            ),
        )
    return RunResult(
        workload=workload.name,
        scheme=scheme,
        seed=seed,
        duration=duration,
        job_duration=job.duration,
        centralize_duration=centralize_duration,
        stages=stages,
        injected_failures=job.injected_failures,
        action_result=action_result if plan.keep_action_results else None,
        **_measurements(context),
    )


def _measurements(context: ClusterContext) -> Dict[str, Any]:
    """The ``RunResult`` fields every cell reads off its finished
    context: traffic, cost, fabric and shuffle perf, fault injection,
    recovery and health."""
    shuffle_perf = context.shuffle_service.perf_snapshot()
    return dict(
        cross_dc_megabytes=context.traffic.cross_dc_megabytes,
        total_megabytes=context.traffic.total_bytes / 1e6,
        cross_dc_by_tag={
            tag: size / 1e6
            for tag, size in context.traffic.cross_dc_by_tag.items()
        },
        # Egress dollars plus object-store request dollars (zero for
        # backends that never touch the blob store).
        cost_dollars=(
            bill_traffic(context.traffic).total_dollars
            + blob_request_dollars(shuffle_perf)
        ),
        fabric_perf=context.fabric.perf_snapshot(),
        backend=context.shuffle_service.name,
        shuffle_perf=shuffle_perf,
        injected_failures_total=context.failure_injector.total_injected,
        chaos_events_applied=(
            context.chaos_injector.events_applied
            if context.chaos_injector is not None
            else 0
        ),
        recovery=context.recovery.as_dict(),
        health=context.health.as_dict(),
    )


def _run_stream_cell(
    workload: Workload,
    scheme: Scheme,
    seed: int,
    plan: ExperimentPlan,
    context: ClusterContext,
) -> RunResult:
    """One multi-tenant stream cell on an already-built context.

    The arrival schedule derives from the cell's run seed through the
    context's root RandomSource (named child stream), so identical seeds
    reproduce identical schedules in every harness — serial,
    per-cell-parallel, and sharded — and adding draws elsewhere never
    perturbs them.
    """
    from repro.scheduler.job_scheduler import run_stream
    from repro.workloads.arrivals import generate_arrivals

    stream_spec = plan.stream
    arrivals = generate_arrivals(
        stream_spec,
        plan.cluster.datacenters,
        context.randomness.child("stream"),
    )
    started = context.sim.now
    stream_result = run_stream(context, stream_spec, arrivals)
    duration = context.sim.now - started
    context.shutdown()
    # Reconciliation surface: the ledger's admission-time attribution
    # ("bytes"/"wan_bytes") next to the monitor's completion-time records
    # — equal once every flow has landed (property-tested, benchmarked).
    for name, row in stream_result.tenants.items():
        row["monitor_bytes"] = context.traffic.by_tenant.get(name, 0.0)
        row["monitor_wan_bytes"] = context.traffic.cross_dc_by_tenant.get(
            name, 0.0
        )
    return RunResult(
        workload=f"stream:{stream_spec.policy}",
        scheme=scheme,
        seed=seed,
        duration=duration,
        job_duration=stream_result.duration,
        centralize_duration=0.0,
        **_measurements(context),
        tenants=stream_result.tenants,
        stream={
            "policy": stream_result.policy,
            "jobs_submitted": stream_result.jobs_submitted,
            "jobs_completed": stream_result.jobs_completed,
            "jobs_failed": stream_result.jobs_failed,
            "arrival_span_s": (
                arrivals[-1].arrival_time if arrivals else 0.0
            ),
        },
    )


def run_matrix(
    workloads: Sequence[Workload],
    schemes: Sequence[Scheme],
    plan: Optional[ExperimentPlan] = None,
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """The full cross product: every workload x scheme x seed.

    ``jobs`` > 1 fans the cells out over a process pool, one cell per
    task; ``None`` reads ``REPRO_JOBS`` (unset: sequential).  Every cell
    is an independent, seeded, deterministic simulation, so the fan-out
    preserves results bit-for-bit: the returned list is in the same
    (workload, scheme, seed) order and every ``RunResult`` field is
    identical.
    """
    plan = plan if plan is not None else ExperimentPlan()
    if jobs is None:
        jobs = default_jobs()
    cells = [
        (workload, scheme, seed)
        for workload in workloads
        for scheme in schemes
        for seed in plan.seeds
    ]
    if jobs <= 1:
        return [run_workload_once(*cell, plan) for cell in cells]
    payloads = [(workload.name, scheme, seed, plan) for workload, scheme, seed in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell, payloads))


# ---------------------------------------------------------------------------
# Process pools
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _worker_workload(name: str) -> Workload:
    """This process's instance of the workload called ``name``.

    Cells travel to pool workers by workload name.  One instance per
    worker, not one per cell: the functions a workload hands its RDDs are
    memo keys, and a fresh instance would bring fresh ones.
    """
    from repro.workloads import workload_by_name

    return workload_by_name(name)


def _run_cell(payload: Tuple[str, Scheme, int, ExperimentPlan]) -> RunResult:
    """Worker entry point: run one cell (top-level so it pickles)."""
    workload_name, scheme, seed, plan = payload
    return run_workload_once(_worker_workload(workload_name), scheme, seed, plan)


def default_jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` environment knob (0 = off)."""
    value = os.environ.get("REPRO_JOBS", "0")
    try:
        return int(value)
    except ValueError:
        raise SystemExit(
            f"REPRO_JOBS must be an integer, got {value!r}"
        ) from None


def shard_map(
    items: Sequence[Any], shard_runner: Any, jobs: Optional[int] = None
) -> List[Any]:
    """Map a picklable per-shard function over ``jobs`` contiguous
    slices of ``items`` in a process pool, preserving order.

    The chaos campaign's pool (:mod:`repro.failures.campaign`):
    ``shard_runner`` takes a contiguous sub-sequence of ``items`` and
    returns a list of results; the flattened output is therefore
    identical to ``shard_runner(items)`` run sequentially — which is
    exactly what happens when ``jobs`` <= 1 (or ``None`` with
    ``REPRO_JOBS`` unset).
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(items) <= 1:
        return list(shard_runner(items))
    shards = min(jobs, len(items))
    base_size, extra = divmod(len(items), shards)
    slices: List[Sequence[Any]] = []
    start = 0
    for index in range(shards):
        stop = start + base_size + (1 if index < extra else 0)
        slices.append(items[start:stop])
        start = stop
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [
            result for shard in pool.map(shard_runner, slices) for result in shard
        ]
