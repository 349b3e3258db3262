"""The six workloads: seeded inputs, one round of work, and its oracles.

Every workload splits a run into *rounds*: statistically identical
batches of ops whose inputs derive from ``(seed, round index)``.  The
work per round is fixed by ``SCALE`` alone (never by the clock), so
simulated results and counts repeat exactly for a given seed, and the
per-round host times give the run a median instead of one sample.

Only public surfaces the ROADMAP does not schedule for removal are
used; nothing here imports ``tests``, ``benchmarks.matrix_cache`` or
``benchmarks.bench_*``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import reconcile_run
from repro.cluster.context import ClusterContext
from repro.config import SimulationConfig
from repro.experiments.runner import (
    ExperimentPlan,
    clear_data_cache,
    generated_input,
    run_workload_once,
)
from repro.experiments.schemes import Scheme, config_for_scheme
from repro.failures.campaign import (
    CampaignConfig,
    fuzz_cluster_spec,
    run_campaign,
)
from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, MBPS, Topology
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

from benchmarks.e2e.metrics import MATRIX_SCHEMES, MATRIX_WORKLOADS

# The one calibration constant: ops per round scale with it.  At 1.0 a
# round takes ~1.25 s of host time on the seed commit (Python 3.11, 2
# cores) and the paper matrix runs all five Table I rows (~13 s).
SCALE = 1.0


def round_seed(seed: int, index: int) -> int:
    """The input seed of round ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


def digest_of(parts: Any) -> str:
    """sha256 over the canonical ``repr`` of a round's simulated results."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def result_hash(action_result: Any) -> str:
    """Order-insensitive hash of a job's action result."""
    if isinstance(action_result, (list, tuple)):
        canonical: Any = sorted(repr(item) for item in action_result)
    else:
        canonical = repr(action_result)
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


@dataclass
class RoundResult:
    """What one round did, measured and checked."""

    ops: int
    failed: int = 0
    # Oracle violations; any entry makes the run incorrect.
    errors: List[str] = field(default_factory=list)
    # Simulated seconds per op (cell, job, schedule or flow).
    sim_durations: List[float] = field(default_factory=list)
    sim_p95_s: float = 0.0
    sim_wan_mb: float = 0.0
    digest: str = ""
    # Deterministic counts from public snapshots, keyed by per-layer
    # metric name (or ``raw.*``); the harness sums them over rounds
    # (``network.peak_active_flows`` is maxed).
    counts: Dict[str, float] = field(default_factory=dict)
    # Host-time spans around public calls (paper_matrix cells only).
    spans: Dict[str, float] = field(default_factory=dict)
    # Workload-specific simulated results (paper_matrix reductions).
    results: Dict[str, float] = field(default_factory=dict)


def snapshot_counts(
    fabric_perf: Dict[str, float],
    shuffle_perf: Optional[Dict[str, float]] = None,
    recovery: Optional[Dict[str, float]] = None,
    health: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Flatten the public perf snapshots of one finished context.

    Keys that are per-layer metric names are reported as they are once
    summed over the rounds; the rest (``raw.*``) feed the ratios
    ``harness.per_layer_metrics`` derives.
    """
    shuffle_perf = shuffle_perf or {}
    recovery = recovery or {}
    health = health or {}
    return {
        "network.flows": fabric_perf.get("total_flows", 0.0),
        "network.solves": fabric_perf.get("solves", 0.0),
        "network.flows_touched": fabric_perf.get("flows_touched", 0.0),
        "network.peak_active_flows": fabric_perf.get("peak_active_flows", 0.0),
        "network.jitter_noops": fabric_perf.get("jitter_noops", 0.0),
        "network.solver_s": fabric_perf.get("solver_seconds", 0.0),
        "raw.route_hits": fabric_perf.get("route_cache_hits", 0.0),
        "raw.route_misses": fabric_perf.get("route_cache_misses", 0.0),
        "raw.shuffles": shuffle_perf.get("shuffles_registered", 0.0),
        "shuffle.blocks_fetched": shuffle_perf.get("blocks_fetched", 0.0),
        "shuffle.blocks_pushed": shuffle_perf.get("blocks_pushed", 0.0),
        "shuffle.wan_mb": shuffle_perf.get("wan_bytes", 0.0) / 1e6,
        "shuffle.intra_dc_mb": shuffle_perf.get("intra_dc_bytes", 0.0) / 1e6,
        "shuffle.recovery_wan_mb": shuffle_perf.get("recovery_wan_bytes", 0.0)
        / 1e6,
        "shuffle.replication_mb": (
            shuffle_perf.get("replication_bytes", 0.0)
            + shuffle_perf.get("rereplication_bytes", 0.0)
        )
        / 1e6,
        "shuffle.blob_requests": shuffle_perf.get("blob_puts", 0.0)
        + shuffle_perf.get("blob_gets", 0.0),
        "failures.stages_resubmitted": recovery.get("stages_resubmitted", 0.0),
        "failures.tasks_relaunched": recovery.get("tasks_relaunched", 0.0),
        "failures.fetch_failures": recovery.get("fetch_failures", 0.0),
        "failures.flow_retries": health.get("flow_retries", 0.0),
    }


def add_counts(total: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        if key == "network.peak_active_flows":
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value


class Workload:
    """One benchmark workload: seeded inputs, rounds, oracles."""

    name = ""
    # Host seconds one round takes on the seed commit at SCALE 1.0; the
    # run measures ``round(seconds / nominal_round_s)`` rounds.
    nominal_round_s = 1.25
    # True when the workload's report carries no per-op simulated
    # durations: the harness then takes each op's duration to be the
    # final clock of the simulator it ran on.
    op_duration_is_simulator_clock = False

    def generate(self, seed: int, rounds: int, scale: float) -> Any:
        """Make every round's inputs from the seed (timed as
        ``workloads.generate_s``)."""
        raise NotImplementedError

    def build(self) -> None:
        """Build (and drop) one cluster of the kind the rounds run on
        (timed as ``cluster.build_s``)."""
        context = ClusterContext(
            ExperimentPlan().cluster,
            config_for_scheme(Scheme.SPARK, _WORDCOUNT_SPEC, 0),
        )
        context.shutdown()

    def warmup(self, inputs: Any) -> None:
        """One small untimed-phase op, so lazy imports and caches are
        paid before the first timed round (``experiments.warmup_s``).
        Raises on an oracle failure."""
        raise NotImplementedError

    def run_round(self, inputs: Any, index: int) -> RoundResult:
        raise NotImplementedError


_WORDCOUNT_SPEC = workload_by_name("wordcount").spec


# ---------------------------------------------------------------------------
# paper_matrix
# ---------------------------------------------------------------------------
class PaperMatrix(Workload):
    """Table I workloads x six schemes through ``run_workload_once``."""

    name = "paper_matrix"
    nominal_round_s = 13.0

    def generate(self, seed: int, rounds: int, scale: float) -> Any:
        rows = max(1, min(len(MATRIX_WORKLOADS), round(5 * scale)))
        workloads = [workload_by_name(n) for n in MATRIX_WORKLOADS[:rows]]
        clear_data_cache()
        for index in range(rounds):
            for workload in workloads:
                generated_input(workload, round_seed(seed, index))
        return seed, workloads

    def warmup(self, inputs: Any) -> None:
        seed, workloads = inputs
        data_seed = round_seed(seed, 0)
        plan = ExperimentPlan(seeds=(data_seed,), fixed_data_seed=data_seed)
        run_workload_once(workloads[0], Scheme.SPARK, data_seed, plan)

    def run_round(self, inputs: Any, index: int) -> RoundResult:
        seed, workloads = inputs
        data_seed = round_seed(seed, index)
        plan = ExperimentPlan(
            seeds=(data_seed,),
            fixed_data_seed=data_seed,
            keep_action_results=True,
        )
        schemes = [Scheme(label) for label in MATRIX_SCHEMES]
        out = RoundResult(ops=len(workloads) * len(schemes))
        digest_parts: List[Any] = []
        jct_reductions: List[float] = []
        wan_reductions: List[float] = []
        for workload in workloads:
            row: Dict[Scheme, Any] = {}
            hashes: Dict[str, str] = {}
            for scheme in schemes:
                started = time.perf_counter()
                try:
                    result = run_workload_once(workload, scheme, data_seed, plan)
                except Exception as error:  # noqa: BLE001 - a failed op, reported
                    out.failed += 1
                    out.errors.append(
                        f"{workload.name} x {scheme.value} raised "
                        f"{type(error).__name__}: {error}"
                    )
                    continue
                span = time.perf_counter() - started
                wl_key = f"cell.{workload.name.lower()}.wall_s"
                sc_key = f"scheme.{scheme.value}.wall_s"
                out.spans[wl_key] = out.spans.get(wl_key, 0.0) + span
                out.spans[sc_key] = out.spans.get(sc_key, 0.0) + span
                row[scheme] = result
                hashes[scheme.value] = result_hash(result.action_result)
                out.sim_durations.append(result.duration)
                out.sim_wan_mb += result.cross_dc_megabytes
                digest_parts.append((
                    workload.name,
                    scheme.value,
                    result.duration,
                    result.cross_dc_megabytes,
                    hashes[scheme.value],
                ))
                counts = snapshot_counts(
                    result.fabric_perf,
                    result.shuffle_perf,
                    result.recovery,
                    result.health,
                )
                counts["scheduler.stages_run"] = float(len(result.stages))
                counts["scheduler.jobs_completed"] = 1.0
                add_counts(out.counts, counts)
            if len(set(hashes.values())) > 1:
                out.errors.append(
                    f"{workload.name}: action-result hash differs across "
                    f"schemes: {hashes}"
                )
            spark, agg = row.get(Scheme.SPARK), row.get(Scheme.AGGSHUFFLE)
            if spark is None or agg is None:
                continue
            jct_reductions.append(1.0 - agg.duration / spark.duration)
            wan_reductions.append(
                1.0 - agg.cross_dc_megabytes / spark.cross_dc_megabytes
            )
        if jct_reductions:
            out.results["agg_jct_reduction_pct"] = (
                100.0 * sum(jct_reductions) / len(jct_reductions)
            )
            out.results["agg_wan_reduction_pct"] = (
                100.0 * sum(wan_reductions) / len(wan_reductions)
            )
            # The paper's claim holds on the mean, not on every row: on
            # about one dataset seed in ten TeraSort's bloating map
            # (the paper's own §V-B anomaly) makes AggShuffle the slower.
            for name, value in out.results.items():
                if value <= 0.0:
                    out.errors.append(
                        f"{name} = {value:.2f}: AggShuffle does not beat "
                        "Spark on the mean of the Table I workloads"
                    )
        out.digest = digest_of(digest_parts)
        return out


# ---------------------------------------------------------------------------
# Job streams
# ---------------------------------------------------------------------------
_TWO_TENANTS = (TenantSpec("prod", weight=2.0), TenantSpec("batch", weight=1.0))
_ONE_TENANT = (TenantSpec("default"),)
_STREAM_WALL_LIMIT_S = 90.0


class Stream(Workload):
    """A seeded Poisson job stream on one shared ``ClusterContext``."""

    def __init__(
        self,
        name: str,
        scheme: Scheme,
        rate_per_minute: float,
        jobs_per_round: int,
        tenants: Tuple[TenantSpec, ...],
        max_concurrent: int = 4,
    ) -> None:
        self.name = name
        self.scheme = scheme
        self.rate_per_minute = rate_per_minute
        self.jobs_per_round = jobs_per_round
        self.tenants = tenants
        self.max_concurrent = max_concurrent
        self.cluster = ExperimentPlan().cluster

    def _spec(self, jobs: int) -> StreamSpec:
        return StreamSpec(
            arrival=ArrivalSpec("poisson", self.rate_per_minute, jobs),
            tenants=self.tenants,
            policy="fair",
            max_concurrent=self.max_concurrent,
        )

    def _arrivals(self, spec: StreamSpec, seed: int) -> List[Any]:
        # The same named stream `repro stream` draws its schedule from.
        return generate_arrivals(
            spec, self.cluster.datacenters, RandomSource(seed).child("stream")
        )

    def generate(self, seed: int, rounds: int, scale: float) -> Any:
        spec = self._spec(max(5, round(self.jobs_per_round * scale)))
        return spec, [
            (round_seed(seed, index),
             self._arrivals(spec, round_seed(seed, index)))
            for index in range(rounds)
        ]

    def warmup(self, inputs: Any) -> None:
        _spec, rounds = inputs
        seed = rounds[0][0]
        spec = self._spec(10)
        result = self._run(spec, seed, self._arrivals(spec, seed))
        if result.errors:
            raise RuntimeError(f"warm-up stream failed: {result.errors}")

    def run_round(self, inputs: Any, index: int) -> RoundResult:
        spec, rounds = inputs
        seed, arrivals = rounds[index]
        return self._run(spec, seed, arrivals)

    def _run(self, spec: StreamSpec, seed: int, arrivals: List[Any]) -> RoundResult:
        config = config_for_scheme(
            self.scheme,
            _WORDCOUNT_SPEC,
            seed,
            # A stream that stops making progress (see README, "Found
            # while building") fails as a LivenessError, not a hang.
            SimulationConfig(max_wall_seconds=_STREAM_WALL_LIMIT_S),
        )
        context = ClusterContext(self.cluster, config)
        out = RoundResult(ops=len(arrivals))
        try:
            stream = run_stream(context, spec, arrivals)
        except Exception as error:  # noqa: BLE001 - every op of the round failed
            out.failed = out.ops
            out.errors.append(
                f"stream raised {type(error).__name__}: {error}"
            )
            return out
        context.shutdown()
        out.failed = stream.jobs_submitted - stream.jobs_completed
        if out.failed:
            out.errors.append(
                f"{stream.jobs_completed} of {stream.jobs_submitted} jobs "
                f"completed ({stream.jobs_failed} failed)"
            )
        monitor = context.traffic
        # counters == monitor, and per tenant ledger == monitor bit for
        # bit (total and WAN bytes).
        out.errors.extend(reconcile_run(context))
        # The report carries per-tenant means and percentiles, not the
        # per-job list: the mean re-weights exactly, the p95 is that of
        # the worst-off tenant.
        for row in stream.tenants.values():
            completed = int(row.get("jobs_completed", 0))
            out.sim_durations.extend([row.get("jct_mean_s", 0.0)] * completed)
            out.sim_p95_s = max(out.sim_p95_s, row.get("jct_p95_s", 0.0))
        out.sim_wan_mb = monitor.cross_dc_megabytes
        out.digest = digest_of((
            stream.duration,
            monitor.cross_dc_megabytes,
            sorted(
                (tenant, sorted(row.items()))
                for tenant, row in stream.tenants.items()
            ),
        ))
        out.counts = snapshot_counts(
            context.fabric.perf_snapshot(),
            context.shuffle_service.perf_snapshot(),
            context.recovery.as_dict(),
            context.health.as_dict(),
        )
        # One map stage per registered shuffle plus one result stage per
        # job, each resubmission running one more.
        out.counts["scheduler.stages_run"] = (
            out.counts["raw.shuffles"]
            + stream.jobs_submitted
            + out.counts["failures.stages_resubmitted"]
        )
        out.counts["scheduler.jobs_completed"] = float(stream.jobs_completed)
        return out


# ---------------------------------------------------------------------------
# chaos_campaign
# ---------------------------------------------------------------------------
class ChaosCampaign(Workload):
    """``run_campaign`` rotating over all backends x policies."""

    name = "chaos_campaign"
    schedules_per_round = 150
    # CampaignReport carries no per-cell durations.
    op_duration_is_simulator_clock = True

    def generate(self, seed: int, rounds: int, scale: float) -> Any:
        schedules = max(5, round(self.schedules_per_round * scale))
        return [
            CampaignConfig(
                seed=round_seed(seed, index),
                schedules=schedules,
                minimize=False,
            )
            for index in range(rounds)
        ]

    def build(self) -> None:
        ClusterContext(fuzz_cluster_spec()).shutdown()

    def warmup(self, inputs: Any) -> None:
        config = CampaignConfig(
            seed=inputs[0].seed, schedules=5, minimize=False
        )
        report = run_campaign(config, jobs=1)
        if report.findings:
            raise RuntimeError("warm-up campaign reported findings")

    def run_round(self, inputs: Any, index: int) -> RoundResult:
        config = inputs[index]
        try:
            report = run_campaign(config, jobs=1)
        except Exception as error:  # noqa: BLE001 - every op of the round failed
            return RoundResult(
                ops=config.schedules,
                failed=config.schedules,
                errors=[f"campaign raised {type(error).__name__}: {error}"],
            )
        # A clean fail-stop under chaos is an accepted outcome of the
        # campaign (not a failed op); it is counted, and any change in
        # it moves the digest.
        out = RoundResult(ops=report.cells_run, failed=len(report.findings))
        for finding in report.findings:
            cell = finding.outcome.cell
            out.errors.append(
                f"schedule#{cell.index} {cell.backend}/{cell.policy}: "
                f"{'; '.join(finding.outcome.violations)}"
            )
        applied = sum(report.kinds_applied.values())
        skipped = sum(report.kinds_skipped.values())
        out.digest = digest_of((
            report.cells_run,
            report.job_failures,
            sorted(report.kinds_applied.items()),
            sorted(report.kinds_skipped.items()),
            sorted(
                (backend, sorted(kinds.items()))
                for backend, kinds in report.kinds_by_backend.items()
            ),
            sorted(report.recovery_totals.items()),
        ))
        totals = report.recovery_totals
        out.counts = {
            "failures.chaos_applied": float(applied),
            "raw.chaos_drawn": float(applied + skipped),
            "failures.job_fail_stops": float(report.job_failures),
            "scheduler.jobs_completed": float(
                report.cells_run - report.job_failures
            ),
            "failures.stages_resubmitted": totals.get("stages_resubmitted", 0.0),
            "failures.tasks_relaunched": totals.get("tasks_relaunched", 0.0),
            "failures.fetch_failures": totals.get("fetch_failures", 0.0),
        }
        return out


# ---------------------------------------------------------------------------
# fabric_churn
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FabricPlan:
    """One seeded fabric scenario: a topology shape plus timed inputs."""

    name: str
    # (datacenter, hosts) pairs and the directed-pair WAN mesh to build.
    datacenters: Tuple[str, ...]
    hosts_per_dc: int
    wan_pairs: Tuple[Tuple[str, str], ...]
    # (start time, src host, dst host, bytes)
    flows: Tuple[Tuple[float, str, str, float], ...]
    # (time, src dc, dst dc, new capacity in bytes/s)
    capacity_changes: Tuple[Tuple[float, str, str, float], ...] = ()


_WAN = 100 * MBPS


def _pair_plan(
    name: str, rng: random.Random, pairs: int, flows: int, stagger_s: float
) -> FabricPlan:
    """Disjoint DC pairs — one fair-share component per pair.  With
    ``stagger_s`` > 0 flows arrive mid-plan, forcing cascade replays."""
    datacenters = tuple(
        f"P{pair}{side}" for pair in range(pairs) for side in "ab"
    )
    schedule = []
    for pair in range(pairs):
        for _ in range(flows):
            start = rng.uniform(0.0, stagger_s) if stagger_s else 0.0
            schedule.append(
                (start, f"P{pair}a-h0", f"P{pair}b-h0", rng.uniform(1e6, 30e6))
            )
    return FabricPlan(
        name=name,
        datacenters=datacenters,
        hosts_per_dc=1,
        wan_pairs=tuple(
            (f"P{pair}a", f"P{pair}b") for pair in range(pairs)
        ),
        flows=tuple(sorted(schedule)),
    )


def _mesh_plan(
    name: str, rng: random.Random, hosts: int, changes: int
) -> FabricPlan:
    """Six-DC full mesh, all-to-all between hosts of different DCs: one
    big component.  ``changes`` mid-run WAN capacity changes re-solve it."""
    datacenters = tuple(f"M{index}" for index in range(6))
    names = [f"{dc}-h{host}" for dc in datacenters for host in range(hosts)]
    schedule = [
        (0.0, src, dst, rng.uniform(1e6, 30e6))
        for src in names
        for dst in names
        if src.split("-")[0] != dst.split("-")[0]
    ]
    wan_pairs = tuple(
        (a, b) for i, a in enumerate(datacenters) for b in datacenters[i + 1:]
    )
    # Every directed WAN link carries hosts^2 flows of ~15.5 MB at
    # 12.5 MB/s; changes land while most of them are still in flight.
    busy_s = hosts * hosts * 15.5e6 / _WAN
    capacity_changes = []
    for _ in range(changes):
        src, dst = rng.sample(datacenters, 2)
        capacity_changes.append((
            rng.uniform(0.05, 0.6) * busy_s,
            src,
            dst,
            _WAN * rng.uniform(0.4, 1.6),
        ))
    return FabricPlan(
        name=name,
        datacenters=datacenters,
        hosts_per_dc=hosts,
        wan_pairs=wan_pairs,
        flows=tuple(schedule),
        capacity_changes=tuple(sorted(capacity_changes)),
    )


def fabric_plans(seed: int, scale: float) -> List[FabricPlan]:
    """The four churn scenarios of one round, sized by ``scale``."""
    rng = random.Random(seed)

    def sized(count: int, floor: int = 2) -> int:
        return max(floor, round(count * scale))

    return [
        _pair_plan("pairs_burst", rng, sized(150), 40, stagger_s=0.0),
        _pair_plan("pairs_staggered", rng, sized(30), 40, stagger_s=40.0),
        _mesh_plan("mesh_all_to_all", rng, max(1, round(5 * scale)), 0),
        _mesh_plan(
            "mesh_capacity_changes", rng, max(1, round(3 * scale)), sized(15)
        ),
    ]


def run_fabric_plan(plan: FabricPlan, drive: str) -> Tuple[Any, Any]:
    """Build a fresh Simulator+Topology+NetworkFabric, play ``plan``."""
    sim = Simulator()
    topology = Topology()
    for datacenter in plan.datacenters:
        topology.add_datacenter(datacenter)
        for host in range(plan.hosts_per_dc):
            topology.add_host(
                f"{datacenter}-h{host}",
                datacenter,
                access_bandwidth=GBPS,
                access_latency=0.0,
            )
    for src, dst in plan.wan_pairs:
        topology.connect_datacenters(src, dst, _WAN, latency=0.0)
    fabric = NetworkFabric(sim, topology, drive=drive)

    def starter(src: str, dst: str, size: float) -> Callable[[], None]:
        return lambda: fabric.transfer(src, dst, size)

    def changer(src: str, dst: str, capacity: float) -> Callable[[], None]:
        link = topology.wan_link(src, dst)
        return lambda: fabric.set_link_capacity(link, capacity)

    for start, src, dst, size in plan.flows:
        if start == 0.0:
            fabric.transfer(src, dst, size)
        else:
            sim.call_at(start, starter(src, dst, size))
    for at, src, dst, capacity in plan.capacity_changes:
        sim.call_at(at, changer(src, dst, capacity))
    sim.run()
    return sim, fabric


class FabricChurn(Workload):
    """Bare fabric rounds: bursts, mid-plan arrivals, mesh, capacity churn."""

    name = "fabric_churn"

    def generate(self, seed: int, rounds: int, scale: float) -> Any:
        return {
            "rounds": [
                fabric_plans(round_seed(seed, index), scale)
                for index in range(rounds)
            ],
            # Reduced instances: the warm-up op and the drive oracle.
            "reduced": fabric_plans(round_seed(seed, 0), scale * 0.1),
        }

    def build(self) -> None:
        plan = _pair_plan("build", random.Random(0), 2, 1, stagger_s=0.0)
        run_fabric_plan(plan, "vector")

    def warmup(self, inputs: Any) -> None:
        for plan in inputs["reduced"]:
            vector_sim, _ = run_fabric_plan(plan, "vector")
            global_sim, _ = run_fabric_plan(plan, "global")
            reference = global_sim.now
            if abs(vector_sim.now - reference) > 1e-9 * reference:
                raise RuntimeError(
                    f"{plan.name}: vector drive ends at {vector_sim.now!r}, "
                    f"global oracle at {reference!r}"
                )

    def run_round(self, inputs: Any, index: int) -> RoundResult:
        plans: Sequence[FabricPlan] = inputs["rounds"][index]
        out = RoundResult(ops=sum(len(plan.flows) for plan in plans))
        digest_parts: List[Any] = []
        for plan in plans:
            try:
                sim, fabric = run_fabric_plan(plan, "vector")
            except Exception as error:  # noqa: BLE001 - the plan's flows failed
                out.failed += len(plan.flows)
                out.errors.append(
                    f"{plan.name} raised {type(error).__name__}: {error}"
                )
                continue
            done = fabric.completed_flows
            unfinished = len(plan.flows) - len(done)
            if unfinished or fabric.active_flow_count:
                out.failed += max(unfinished, fabric.active_flow_count)
                out.errors.append(
                    f"{plan.name}: {len(done)} of {len(plan.flows)} flows "
                    f"completed, {fabric.active_flow_count} still active"
                )
            out.sim_durations.extend(
                flow.finished_at - flow.started_at for flow in done
            )
            out.sim_wan_mb += sum(flow.size_bytes for flow in done) / 1e6
            digest_parts.append((
                plan.name,
                sim.now,
                sorted((flow.flow_id, flow.finished_at) for flow in done),
            ))
            add_counts(out.counts, snapshot_counts(fabric.perf_snapshot()))
        out.digest = digest_of(digest_parts)
        return out


def all_workloads() -> Dict[str, Workload]:
    """Fresh instances of the six workloads, by name."""
    instances: List[Workload] = [
        PaperMatrix(),
        Stream("stream_fetch_busy", Scheme.SPARK, 600.0, 650, _TWO_TENANTS),
        # One tenant pool: with two, AggShuffle receivers pinned to an
        # aggregator DC outside their tenant's pool can hang the stream.
        Stream(
            "stream_agg_fair",
            Scheme.AGGSHUFFLE,
            600.0,
            200,
            _ONE_TENANT,
            max_concurrent=64,
        ),
        Stream("stream_idle", Scheme.AGGSHUFFLE, 0.5, 450, _ONE_TENANT),
        ChaosCampaign(),
        FabricChurn(),
    ]
    return {workload.name: workload for workload in instances}
