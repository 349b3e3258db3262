"""Seeded chaos campaign: coverage-guided fault fuzzing with oracles.

The campaign loop (``repro fuzz``):

1. draw seeded schedules from the weighted grammar
   (:mod:`repro.failures.grammar`) over a fixed three-datacenter fuzz
   cluster;
2. run each schedule against a backend x policy matrix cell — a small
   deterministic two-stage job with byte-heavy
   :class:`~repro.rdd.size_estimator.SizedRecord` payloads, sized so the
   job is still in flight when the schedule fires — under a **composite
   oracle**:

   * the runtime sanitizer's invariants (rates, capacity conservation,
     clock monotonicity, and at every stage boundary, every landed byte
     on the views that read the traffic monitor);
   * the same landed-byte check after the run
     (:func:`repro.analysis.sanitizer.reconcile_run`);
   * fault-free **result-hash equality**: recovery may re-execute work
     but must never change the answer;
   * a wall-clock-bounded **liveness** check (the kernel watchdog) that
     flags hung recoveries instead of deadlocking the suite;

3. delta-debug every violating schedule down to a minimal failing
   reproducer (:mod:`repro.failures.minimize`);
4. emit a replayable JSON artifact whose ``schedule`` round-trips
   through the CLI grammar (``repro run --chaos @artifact.json``).

A job that *fails cleanly* under chaos (lineage budget exhausted after
losing too many replicas, say) is an accepted outcome — fail-stop is
not a bug.  The oracles hunt silent corruption, broken accounting, and
hangs.

Cells are independent seeded simulations, so the campaign parallelises
through the same :func:`~repro.experiments.runner.shard_map` machinery
as the experiment matrix, byte-identically to a serial run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import InvariantViolation, reconcile_run, sanitized
from repro.errors import ConfigurationError, LivenessError, ReproError
from repro.failures.chaos import ChaosSchedule
from repro.failures.grammar import (
    ChaosUniverse,
    GrammarConfig,
    random_schedule,
    schedule_to_specs,
)
from repro.failures.minimize import MinimizationResult, minimize_schedule
from repro.network.topology import GBPS, MBPS
from repro.rdd.size_estimator import SizedRecord
from repro.simulation.random_source import RandomSource

if False:  # pragma: no cover - type-only names (cluster layer imports us)
    from repro.cluster.builder import ClusterSpec  # noqa: F401

ARTIFACT_VERSION = 1

# The fuzz job's shape: enough keys and bytes that the reduce stage is
# still shuffling when schedule windows (~0.5-4 s simulated) fire on the
# fuzz cluster below, while one cell stays ~10-30 ms of wall time.
_FUZZ_KEYS = 48
_FUZZ_SLICES = 6
_FUZZ_REDUCERS = 4
_FUZZ_RECORD_BYTES = 0.5e6

POLICIES = ("baseline", "health", "speculate")

# Wall-clock budget of one chaotic cell: the kernel watchdog turns a run
# past it into a liveness violation instead of a hung campaign.
CELL_WALL_SECONDS = 30.0


def fuzz_cluster_spec() -> "ClusterSpec":
    """The fixed cluster every campaign cell runs on: three DCs, two
    workers each, 100 Mbps WAN — small enough for milliseconds per cell,
    wide enough that every chaos kind has a meaningful target."""
    # Lazy: the cluster layer imports repro.failures at its own import
    # time, so the campaign pulls cluster/config names per call.
    from repro.cluster.builder import ClusterSpec

    return ClusterSpec(
        datacenters=("dc-a", "dc-b", "dc-c"),
        workers_per_datacenter=2,
        intra_dc_bandwidth=1 * GBPS,
        inter_dc_bandwidth=100 * MBPS,
        gateway_bandwidth=None,
        driver_datacenter="dc-a",
    )


def _policy_config(policy: str, backend: str, seed: int):
    from repro.config import HealthConfig, ShuffleConfig, SimulationConfig

    if policy not in POLICIES:
        known = ", ".join(POLICIES)
        raise ConfigurationError(
            f"unknown campaign policy {policy!r} (one of: {known})"
        )
    guarded = policy in ("health", "speculate")
    return SimulationConfig(
        seed=seed,
        shuffle=ShuffleConfig(backend=backend),
        jitter=None,
        # Chaos kinds that destroy storage need a second replica or
        # lineage recovery bottoms out at permanently lost input.
        dfs_replication=2,
        health=HealthConfig(
            blacklist_enabled=guarded, flow_retry_enabled=guarded
        ),
        speculation=policy == "speculate",
    )


def _fuzz_records() -> List[Tuple[str, SizedRecord]]:
    return [
        (f"key-{index % _FUZZ_KEYS}", SizedRecord(1, _FUZZ_RECORD_BYTES))
        for index in range(_FUZZ_KEYS * 4)
    ]


def _merge(a: SizedRecord, b: SizedRecord) -> SizedRecord:
    return SizedRecord(a.payload + b.payload, a.natural_size + b.natural_size)


def result_hash(result: Any) -> str:
    """Order-insensitive digest of a reduce result."""
    canonical = sorted(
        (key, record.payload, record.natural_size) for key, record in result
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


@dataclass(frozen=True, slots=True)
class CampaignCell:
    """One (schedule, backend, policy) matrix cell, picklable for
    :func:`~repro.experiments.runner.shard_map` workers."""

    index: int
    schedule_specs: Tuple[str, ...]
    backend: str
    policy: str
    seed: int
    expected_hash: Optional[str]
    max_wall_seconds: float


@dataclass(frozen=True, slots=True)
class CellOutcome:
    """Everything one cell reports back to the campaign."""

    cell: CampaignCell
    violations: Tuple[str, ...]
    job_failed: str
    duration: float
    chaos_applied: Tuple[str, ...]
    chaos_skipped: Tuple[str, ...]
    recovery: Tuple[Tuple[str, float], ...]
    observed_hash: Optional[str]


def run_cell(
    cell: CampaignCell, schedule: Optional[ChaosSchedule] = None
) -> CellOutcome:
    """Execute one matrix cell under the composite oracle.

    ``schedule`` overrides the cell's own specs (the minimizer probes
    with candidate schedules without re-serializing each one).
    """
    if schedule is None:
        schedule = ChaosSchedule.from_specs(cell.schedule_specs)
    config = _policy_config(cell.policy, cell.backend, cell.seed)
    config = config.with_chaos(schedule if schedule else None)
    if cell.max_wall_seconds > 0:
        config = _with_wall_limit(config, cell.max_wall_seconds)
    violations: List[str] = []
    job_failed = ""
    observed: Optional[str] = None
    duration = 0.0
    applied: Tuple[str, ...] = ()
    skipped: Tuple[str, ...] = ()
    recovery: Tuple[Tuple[str, float], ...] = ()
    from repro.cluster.context import ClusterContext

    with sanitized():
        context = ClusterContext(fuzz_cluster_spec(), config)
        try:
            started = context.sim.now
            rdd = context.parallelize(_fuzz_records(), _FUZZ_SLICES)
            result = rdd.reduce_by_key(
                _merge, num_partitions=_FUZZ_REDUCERS
            ).collect()
            duration = context.sim.now - started
            observed = result_hash(result)
            if cell.expected_hash and observed != cell.expected_hash:
                violations.append(
                    f"result-hash: {observed} != fault-free {cell.expected_hash}"
                )
            violations.extend(reconcile_run(context))
        except InvariantViolation as violation:
            violations.append(f"sanitizer: {violation}")
        except LivenessError as violation:
            violations.append(f"liveness: {violation}")
        except ReproError as error:
            # Fail-stop under chaos is an accepted outcome, not a bug.
            job_failed = f"{type(error).__name__}: {error}"
        finally:
            injector = context.chaos_injector
            if injector is not None:
                applied = tuple(
                    record.event.kind for record in injector.fired if record.applied
                )
                skipped = tuple(
                    record.event.kind
                    for record in injector.fired
                    if not record.applied
                )
            recovery = tuple(sorted(context.recovery.as_dict().items()))
            try:
                context.shutdown()
            except ReproError:  # pragma: no cover - defensive
                pass
    return CellOutcome(
        cell=cell,
        violations=tuple(violations),
        job_failed=job_failed,
        duration=duration,
        chaos_applied=applied,
        chaos_skipped=skipped,
        recovery=recovery,
        observed_hash=observed,
    )


def _with_wall_limit(config, limit: float):
    from dataclasses import replace

    return replace(config, max_wall_seconds=limit)


def _run_campaign_shard(cells: Sequence[CampaignCell]) -> List[CellOutcome]:
    """Worker entry point: run a contiguous slice of the cell list."""
    return [run_cell(cell) for cell in cells]


def fault_free_hashes(
    backends: Sequence[str], policies: Sequence[str], seed: int
) -> Dict[Tuple[str, str], str]:
    """The fault-free result hash of every matrix column.

    Computed by running each (backend, policy) cell once with an empty
    schedule; the oracle then demands every chaotic run of that column
    reproduce it exactly.
    """
    hashes: Dict[Tuple[str, str], str] = {}
    for backend in backends:
        for policy in policies:
            probe = CampaignCell(
                index=-1,
                schedule_specs=(),
                backend=backend,
                policy=policy,
                seed=seed,
                expected_hash=None,
                max_wall_seconds=0.0,
            )
            outcome = run_cell(probe)
            if outcome.violations or outcome.job_failed:
                raise ConfigurationError(
                    f"fault-free baseline for backend={backend} "
                    f"policy={policy} did not run clean: "
                    f"{outcome.violations or outcome.job_failed}"
                )
            hashes[(backend, policy)] = outcome.observed_hash or ""
    return hashes


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """Tunables of one ``repro fuzz`` campaign."""

    seed: int = 0
    schedules: int = 50
    # None = stop on the schedule budget alone; otherwise stop drawing
    # new work once this much wall time has elapsed (cells already
    # dispatched still finish).
    max_wall_seconds: Optional[float] = None
    backends: Tuple[str, ...] = ()
    policies: Tuple[str, ...] = POLICIES
    # rotate=True pairs schedule i with matrix column i mod columns (one
    # cell per schedule — breadth); rotate=False runs the full cross
    # product (depth).
    rotate: bool = True
    events_min: int = 2
    events_max: int = 6
    minimize: bool = True
    artifact_dir: Optional[str] = None

    def validate(self) -> None:
        if self.schedules < 1:
            raise ConfigurationError("campaign needs at least one schedule")
        if not 1 <= self.events_min <= self.events_max:
            raise ConfigurationError(
                "campaign needs 1 <= events_min <= events_max"
            )
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ConfigurationError("max_wall_seconds must be > 0")
        for policy in self.policies:
            if policy not in POLICIES:
                known = ", ".join(POLICIES)
                raise ConfigurationError(
                    f"unknown campaign policy {policy!r} (one of: {known})"
                )


@dataclass(frozen=True)
class Finding:
    """One confirmed oracle violation, minimized to a reproducer."""

    outcome: CellOutcome
    minimized: Optional[MinimizationResult]
    artifact_path: Optional[str]

    @property
    def reproducer_specs(self) -> Tuple[str, ...]:
        if self.minimized is not None:
            return tuple(schedule_to_specs(self.minimized.schedule))
        return self.outcome.cell.schedule_specs


@dataclass
class CampaignReport:
    """The campaign's result: findings plus a coverage report."""

    config: CampaignConfig
    schedules_drawn: int = 0
    cells_run: int = 0
    findings: List[Finding] = field(default_factory=list)
    job_failures: int = 0
    kinds_applied: Dict[str, int] = field(default_factory=dict)
    kinds_skipped: Dict[str, int] = field(default_factory=dict)
    kinds_by_backend: Dict[str, Dict[str, int]] = field(default_factory=dict)
    recovery_totals: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    stopped_early: bool = False

    def format_summary(self) -> str:
        lines = [
            f"campaign: seed={self.config.seed} "
            f"schedules={self.schedules_drawn} cells={self.cells_run} "
            f"findings={len(self.findings)} job_failures={self.job_failures} "
            f"wall={self.wall_seconds:.1f}s"
            + (" (stopped early: wall budget)" if self.stopped_early else ""),
            "coverage (kind: applied/skipped):",
        ]
        for kind in sorted(set(self.kinds_applied) | set(self.kinds_skipped)):
            lines.append(
                f"  {kind}: {self.kinds_applied.get(kind, 0)}"
                f"/{self.kinds_skipped.get(kind, 0)}"
            )
        lines.append("recovery paths fired:")
        for name, total in sorted(self.recovery_totals.items()):
            if total:
                lines.append(f"  {name}: {total:g}")
        for finding in self.findings:
            cell = finding.outcome.cell
            lines.append(
                f"FINDING schedule#{cell.index} backend={cell.backend} "
                f"policy={cell.policy}: {'; '.join(finding.outcome.violations)}"
            )
            if finding.minimized is not None:
                lines.append(
                    f"  minimized {finding.minimized.original_events} -> "
                    f"{finding.minimized.events} event(s) in "
                    f"{finding.minimized.probes} probe(s)"
                )
            for spec in finding.reproducer_specs:
                lines.append(f"  {spec}")
            if finding.artifact_path:
                lines.append(f"  artifact: {finding.artifact_path}")
        return "\n".join(lines)


def build_artifact(finding: Finding, campaign_seed: int) -> Dict[str, Any]:
    """The replayable JSON payload for one finding."""
    outcome = finding.outcome
    cell = outcome.cell
    payload: Dict[str, Any] = {
        "version": ARTIFACT_VERSION,
        "campaign_seed": campaign_seed,
        "schedule_index": cell.index,
        "backend": cell.backend,
        "policy": cell.policy,
        "seed": cell.seed,
        "violations": list(outcome.violations),
        "schedule": list(finding.reproducer_specs),
        "original_schedule": list(cell.schedule_specs),
    }
    if finding.minimized is not None:
        payload["minimizer"] = {
            "original_events": finding.minimized.original_events,
            "events": finding.minimized.events,
            "probes": finding.minimized.probes,
        }
    return payload


def load_artifact_schedule(path: str) -> ChaosSchedule:
    """Parse the ``schedule`` of a campaign artifact back through the
    grammar (the ``--chaos @artifact.json`` round trip)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"cannot load chaos artifact {path!r}: {error}"
        ) from None
    specs = payload.get("schedule")
    if not isinstance(specs, list) or not all(
        isinstance(spec, str) for spec in specs
    ):
        raise ConfigurationError(
            f"chaos artifact {path!r} has no 'schedule' list of specs"
        )
    return ChaosSchedule.from_specs(specs)


def run_campaign(
    config: CampaignConfig, jobs: Optional[int] = None
) -> CampaignReport:
    """Run one full campaign: draw, execute, minimize, report."""
    config.validate()
    backends = config.backends
    if not backends:
        from repro.shuffle.backends import BACKENDS

        backends = tuple(BACKENDS)
    # repro-lint: allow[DET002] campaign wall budget; never feeds simulated time
    started = time.monotonic()
    report = CampaignReport(config=config)
    root = RandomSource(config.seed)
    universe = ChaosUniverse.from_spec(fuzz_cluster_spec())
    baselines = fault_free_hashes(backends, config.policies, config.seed)
    matrix = [
        (backend, policy)
        for backend in backends
        for policy in config.policies
    ]

    cells: List[CampaignCell] = []
    for index in range(config.schedules):
        if config.max_wall_seconds is not None:
            # repro-lint: allow[DET002] campaign wall budget; never feeds simulated time
            if time.monotonic() - started > config.max_wall_seconds:
                report.stopped_early = True
                break
        child = root.child(f"schedule:{index}")
        events = child.stream("fuzz:events").randint(
            config.events_min, config.events_max
        )
        schedule = random_schedule(
            child,
            universe,
            GrammarConfig(events=events),
        )
        specs = tuple(schedule_to_specs(schedule))
        columns = (
            [matrix[index % len(matrix)]] if config.rotate else matrix
        )
        for backend, policy in columns:
            cells.append(CampaignCell(
                index=index,
                schedule_specs=specs,
                backend=backend,
                policy=policy,
                seed=config.seed,
                expected_hash=baselines[(backend, policy)],
                max_wall_seconds=CELL_WALL_SECONDS,
            ))
        report.schedules_drawn = index + 1

    from repro.experiments.runner import shard_map

    outcomes: List[CellOutcome] = shard_map(
        cells, _run_campaign_shard, jobs=jobs
    )

    for outcome in outcomes:
        report.cells_run += 1
        if outcome.job_failed:
            report.job_failures += 1
        backend_cov = report.kinds_by_backend.setdefault(
            outcome.cell.backend, {}
        )
        for kind in outcome.chaos_applied:
            report.kinds_applied[kind] = report.kinds_applied.get(kind, 0) + 1
            backend_cov[kind] = backend_cov.get(kind, 0) + 1
        for kind in outcome.chaos_skipped:
            report.kinds_skipped[kind] = report.kinds_skipped.get(kind, 0) + 1
        for name, value in outcome.recovery:
            report.recovery_totals[name] = (
                report.recovery_totals.get(name, 0.0) + value
            )
        if outcome.violations:
            report.findings.append(
                _minimize_finding(outcome, config)
            )

    # repro-lint: allow[DET002] campaign wall budget; never feeds simulated time
    report.wall_seconds = time.monotonic() - started
    return report


def _minimize_finding(
    outcome: CellOutcome, config: CampaignConfig
) -> Finding:
    """Shrink one violating cell to a reproducer and emit its artifact."""
    minimized: Optional[MinimizationResult] = None
    if config.minimize and outcome.cell.schedule_specs:
        cell = outcome.cell

        def still_fails(candidate: ChaosSchedule) -> bool:
            return bool(run_cell(cell, schedule=candidate).violations)

        minimized = minimize_schedule(
            ChaosSchedule.from_specs(cell.schedule_specs), still_fails
        )
    finding = Finding(outcome=outcome, minimized=minimized, artifact_path=None)
    if config.artifact_dir:
        os.makedirs(config.artifact_dir, exist_ok=True)
        cell = outcome.cell
        path = os.path.join(
            config.artifact_dir,
            f"finding-{cell.index:04d}-{cell.backend}-{cell.policy}.json",
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                build_artifact(finding, config.seed),
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        finding = Finding(
            outcome=outcome, minimized=minimized, artifact_path=path
        )
    return finding
