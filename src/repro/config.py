"""Configuration objects shared across the whole stack.

All tunables live here so experiments are declarative: a
:class:`SimulationConfig` plus a topology fully determines a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.network.topology import MBPS
from repro.storage.disk import DiskModel

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.failures.chaos import ChaosSchedule


@dataclass(frozen=True)
class JitterSpec:
    """Parameters of the WAN bandwidth fluctuation process."""

    low: float = 80 * MBPS
    high: float = 300 * MBPS
    period: float = 5.0
    # Fraction of the [low, high] span a single step may move.
    max_step_fraction: float = 0.35

    def validate(self) -> None:
        if self.low <= 0 or self.high <= self.low:
            raise ValueError("jitter requires 0 < low < high")
        if self.period <= 0:
            raise ValueError("jitter period must be positive")
        if not 0 < self.max_step_fraction <= 1:
            raise ValueError("max_step_fraction must be in (0, 1]")


@dataclass(frozen=True)
class CostModel:
    """Charges simulated CPU time for computation.

    ``cpu_bytes_per_second`` is the per-core streaming rate over *logical*
    bytes (the paper-scale volumes), so CPU time reflects paper-scale data
    even though the record count is scaled down.  ``seconds_per_record``
    adds a small per-record overhead so record-heavy operators are not
    free.  ``sort_factor`` multiplies the byte cost of sorting operators.
    """

    cpu_bytes_per_second: float = 40e6
    seconds_per_record: float = 0.0
    sort_factor: float = 1.2
    # In-memory combining / merging is much cheaper per byte than the
    # workload's primary record processing (hash-map updates vs. parsing).
    combine_factor: float = 0.3
    # Partitioning records into shuffle shards is a single cheap pass.
    shuffle_write_factor: float = 0.2
    task_launch_overhead: float = 0.05

    def compute_time(self, logical_bytes: float, records: int = 0) -> float:
        if logical_bytes < 0 or records < 0:
            raise ValueError("negative computation volume")
        return (
            logical_bytes / self.cpu_bytes_per_second
            + records * self.seconds_per_record
        )

    def sort_time(self, logical_bytes: float, records: int = 0) -> float:
        return self.sort_factor * self.compute_time(logical_bytes, records)

    def combine_time(self, logical_bytes: float, records: int = 0) -> float:
        return self.combine_factor * self.compute_time(logical_bytes, records)

    def shuffle_write_time(self, logical_bytes: float) -> float:
        return self.shuffle_write_factor * self.compute_time(logical_bytes)


@dataclass(frozen=True)
class SchedulingConfig:
    """Locality/delay-scheduling behaviour of the task scheduler."""

    # How long a task waits for a preferred-host slot before settling for
    # a same-datacenter slot, and then for any slot (Spark's
    # ``spark.locality.wait`` is 3 s by default).
    locality_wait_host: float = 2.0
    locality_wait_datacenter: float = 45.0
    # A reducer only *prefers* hosts that store at least this fraction of
    # its shuffle input (Spark 1.6's REDUCER_PREF_LOCS_FRACTION = 0.2).
    reducer_pref_fraction: float = 0.2
    # Receiver (transferTo) tasks wait this long for a slot in the
    # aggregator datacenter before falling back to any host; effectively
    # they queue there, since pushing elsewhere defeats aggregation.
    receiver_datacenter_wait: float = 600.0
    max_task_attempts: int = 4
    # Speculative execution (Spark's spark.speculation): once
    # ``speculation_quantile`` of a stage's tasks have finished, any
    # remaining task running longer than ``speculation_multiplier`` x
    # the median completed duration gets a duplicate launched anywhere;
    # the first finisher wins.
    speculation: bool = False
    speculation_multiplier: float = 2.0
    speculation_quantile: float = 0.75
    speculation_interval: float = 5.0
    # Lineage recovery (Spark's FetchFailed path): how many times one
    # stage may be resubmitted when its output is lost (Spark's
    # ``spark.stage.maxConsecutiveAttempts`` is 4), how long the first
    # resubmission waits (doubling each time), and how many FetchFailed
    # retries a single consumer task gets before the job fails.
    max_stage_retries: int = 4
    stage_retry_backoff: float = 0.2
    max_fetch_failures_per_task: int = 8

    def __post_init__(self) -> None:
        if self.speculation_multiplier < 1:
            raise ConfigurationError("speculation_multiplier must be >= 1")
        if not 0 < self.speculation_quantile <= 1:
            raise ConfigurationError(
                "speculation_quantile must be in (0, 1]"
            )
        if self.speculation_interval <= 0:
            raise ConfigurationError("speculation_interval must be > 0")
        if self.max_stage_retries < 1:
            raise ConfigurationError("max_stage_retries must be >= 1")
        if self.stage_retry_backoff < 0:
            raise ConfigurationError("stage_retry_backoff must be >= 0")
        if self.max_fetch_failures_per_task < 1:
            raise ConfigurationError(
                "max_fetch_failures_per_task must be >= 1"
            )


@dataclass(frozen=True)
class FailureConfig:
    """Task failure injection (paper Fig. 2 / §III-A)."""

    reducer_failure_probability: float = 0.0
    # Fraction of the attempt's work completed before the failure hits.
    wasted_work_fraction: float = 0.5
    max_injected_failures_per_task: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.reducer_failure_probability <= 1.0:
            raise ConfigurationError(
                "reducer_failure_probability must be in [0, 1]"
            )
        if not 0.0 <= self.wasted_work_fraction <= 1.0:
            raise ConfigurationError(
                "wasted_work_fraction must be in [0, 1]"
            )
        if self.max_injected_failures_per_task < 0:
            raise ConfigurationError(
                "max_injected_failures_per_task must be >= 0"
            )


@dataclass(frozen=True)
class HealthConfig:
    """Health-aware degradation: blacklisting, circuit breakers, retry.

    Everything here is opt-in (all features default off), so the legacy
    failure path — interrupt attempts, resubmit stages from lineage —
    is byte-for-byte unchanged unless a feature is enabled.  See
    DESIGN.md §10 and :mod:`repro.failures.health`.
    """

    # Spark-style excludeOnFailure: a host accumulating task failures is
    # excluded per-stage first, then app-wide (with timed expiry), and a
    # datacenter most of whose hosts are excluded is escalated whole.
    blacklist_enabled: bool = False
    max_task_failures_per_executor_stage: int = 2
    max_task_failures_per_executor: int = 4
    blacklist_timeout: float = 60.0
    datacenter_exclusion_threshold: int = 2

    # Per-WAN-link circuit breaker (closed -> open -> half-open with
    # probe flows), driven by flow deadline misses on the link.
    breaker_enabled: bool = False
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 10.0
    breaker_probe_flows: int = 1
    breaker_probes_to_close: int = 2

    # Flow-level retry: a flow missing its per-flow deadline is
    # cancelled and re-issued (possibly from another replica) with
    # exponential backoff.  The deadline is ``base + multiplier x ideal
    # transfer time at the route's *base* (undegraded) capacities``, so
    # a deep chaos degrade misses it while ordinary fair-share
    # contention does not; the final attempt runs without a deadline —
    # slowness alone never escalates to FetchFailed (genuinely missing
    # data already raises at lookup time).
    flow_retry_enabled: bool = False
    max_flow_retries: int = 3
    flow_retry_backoff: float = 0.5
    flow_deadline_base: float = 10.0
    flow_deadline_multiplier: float = 30.0

    def __post_init__(self) -> None:
        if self.max_task_failures_per_executor_stage < 1:
            raise ConfigurationError(
                "max_task_failures_per_executor_stage must be >= 1"
            )
        if self.max_task_failures_per_executor < 1:
            raise ConfigurationError(
                "max_task_failures_per_executor must be >= 1"
            )
        if self.blacklist_timeout <= 0:
            raise ConfigurationError("blacklist_timeout must be > 0")
        if self.datacenter_exclusion_threshold < 1:
            raise ConfigurationError(
                "datacenter_exclusion_threshold must be >= 1"
            )
        if self.breaker_failure_threshold < 1:
            raise ConfigurationError(
                "breaker_failure_threshold must be >= 1"
            )
        if self.breaker_cooldown <= 0:
            raise ConfigurationError("breaker_cooldown must be > 0")
        if self.breaker_probe_flows < 1:
            raise ConfigurationError("breaker_probe_flows must be >= 1")
        if self.breaker_probes_to_close < 1:
            raise ConfigurationError(
                "breaker_probes_to_close must be >= 1"
            )
        if self.max_flow_retries < 1:
            raise ConfigurationError("max_flow_retries must be >= 1")
        if self.flow_retry_backoff < 0:
            raise ConfigurationError("flow_retry_backoff must be >= 0")
        if self.flow_deadline_base < 0:
            raise ConfigurationError("flow_deadline_base must be >= 0")
        if self.flow_deadline_multiplier < 0:
            raise ConfigurationError(
                "flow_deadline_multiplier must be >= 0"
            )
        if (
            self.flow_retry_enabled
            and self.flow_deadline_base == 0
            and self.flow_deadline_multiplier == 0
        ):
            raise ConfigurationError(
                "flow retry needs a positive deadline (base or multiplier)"
            )


@dataclass(frozen=True)
class ShuffleConfig:
    """Which shuffle backend the engine's data path uses.

    ``backend`` names a strategy registered in
    :mod:`repro.shuffle.backends` (``"fetch"``, ``"push_aggregate"``,
    ``"pre_merge"``, ...).  When omitted it is derived from the legacy
    flags: ``push_based``/``auto_aggregate`` mirror the paper's
    ``spark.shuffle.aggregation`` property and select the Push/Aggregate
    backend (implicit ``transfer_to()`` before every shuffle); both False
    selects Spark's default fetch-based shuffle.
    """

    push_based: bool = False
    auto_aggregate: bool = False
    # Number of datacenters shuffle input is aggregated into (§III-B uses
    # a single datacenter "as an example"; >1 is our ablation extension).
    aggregation_subset_size: int = 1
    # Explicit backend name; None derives it from the legacy flags.
    backend: Optional[str] = None
    # Durability-first backends.  ``remote``: base replica count of the
    # shuffle-worker pool (adaptively raised — capped at 3 — while WAN
    # breakers are open or datacenters are blacklist-excluded), workers
    # pinned per datacenter, and the per-worker memory buffer before
    # accepted bytes spill to local disk.
    remote_replication: int = 2
    shuffle_workers_per_datacenter: int = 1
    shuffle_worker_buffer_bytes: float = 64e6

    @property
    def backend_name(self) -> str:
        """The registered backend this configuration resolves to."""
        if self.backend is not None:
            return self.backend
        return "push_aggregate" if self.auto_aggregate else "fetch"

    def validate(self) -> None:
        if self.auto_aggregate and not self.push_based:
            raise ConfigurationError(
                "auto_aggregate requires push_based shuffle"
            )
        if self.aggregation_subset_size < 1:
            raise ConfigurationError("aggregation_subset_size must be >= 1")
        if not 1 <= self.remote_replication <= 3:
            raise ConfigurationError(
                "remote_replication must be in [1, 3], "
                f"got {self.remote_replication!r}"
            )
        if self.shuffle_workers_per_datacenter < 1:
            raise ConfigurationError(
                "shuffle_workers_per_datacenter must be >= 1"
            )
        if self.shuffle_worker_buffer_bytes <= 0:
            raise ConfigurationError(
                "shuffle_worker_buffer_bytes must be > 0"
            )
        # Imported lazily: the backend modules depend on config for their
        # own imports.
        from repro.shuffle.backends import backend_names

        if self.backend_name not in backend_names():
            known = ", ".join(sorted(backend_names()))
            raise ConfigurationError(
                f"unknown shuffle backend {self.backend_name!r} "
                f"(registered: {known})"
            )


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that parameterises one simulated job run."""

    seed: int = 0
    cores_per_host: int = 2
    cost: CostModel = field(default_factory=CostModel)
    disk: DiskModel = field(default_factory=DiskModel)
    scheduling: SchedulingConfig = field(default_factory=SchedulingConfig)
    failures: FailureConfig = field(default_factory=FailureConfig)
    # Health-aware degradation (blacklist, WAN circuit breakers,
    # flow-level retry); every feature defaults off.
    health: HealthConfig = field(default_factory=HealthConfig)
    shuffle: ShuffleConfig = field(default_factory=ShuffleConfig)
    jitter: Optional[JitterSpec] = field(default_factory=JitterSpec)
    # Timed infrastructure faults (executor crashes, host/DC losses,
    # WAN degradation) fired into the run by a ChaosInjector; None (or
    # an empty schedule) injects nothing.  See repro.failures.chaos.
    chaos: Optional[ChaosSchedule] = None
    # Multiplier from natural record sizes to logical bytes.  The
    # bundled workloads attach explicit paper-scale sizes to their
    # records (via SizedRecord), so the default is 1.0; raise it to make
    # plain-record datasets stand for proportionally larger volumes.
    scale_factor: float = 1.0
    # DFS replica count for input files.  1 matches the seed's behaviour
    # (and keeps placement-sensitive results unchanged); chaos runs with
    # host/outage/merger events want >= 2, or lineage recovery bottoms
    # out at permanently lost input blocks.
    dfs_replication: int = 1
    # Liveness watchdog: abort the run with LivenessError once this much
    # *wall-clock* time has elapsed.  None (the default) disables the
    # watchdog; the chaos campaign arms it so a hung recovery is flagged
    # instead of deadlocking the suite.
    max_wall_seconds: Optional[float] = None

    def validate(self) -> None:
        if self.cores_per_host < 1:
            raise ConfigurationError("cores_per_host must be >= 1")
        if self.scale_factor <= 0:
            raise ConfigurationError("scale_factor must be positive")
        if self.dfs_replication < 1:
            raise ConfigurationError("dfs_replication must be >= 1")
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ConfigurationError("max_wall_seconds must be > 0")
        self.shuffle.validate()
        if self.jitter is not None:
            self.jitter.validate()
        if self.chaos is not None:
            self.chaos.validate()

    def with_shuffle(self, shuffle: ShuffleConfig) -> SimulationConfig:
        return replace(self, shuffle=shuffle)

    def with_chaos(self, chaos: Optional[ChaosSchedule]) -> SimulationConfig:
        return replace(self, chaos=chaos)

    def with_seed(self, seed: int) -> SimulationConfig:
        return replace(self, seed=seed)

    def with_health(self, health: HealthConfig) -> SimulationConfig:
        return replace(self, health=health)


def fetch_config(**overrides) -> SimulationConfig:
    """Baseline Spark configuration (fetch-based shuffle)."""
    return SimulationConfig(
        shuffle=ShuffleConfig(push_based=False, auto_aggregate=False),
        **overrides,
    )


def agg_shuffle_config(**overrides) -> SimulationConfig:
    """The paper's AggShuffle configuration (implicit Push/Aggregate)."""
    return SimulationConfig(
        shuffle=ShuffleConfig(push_based=True, auto_aggregate=True),
        **overrides,
    )


def backend_config(backend: str, **overrides) -> SimulationConfig:
    """A configuration running any registered shuffle backend by name."""
    return SimulationConfig(
        shuffle=shuffle_config_for_backend(backend), **overrides
    )


def shuffle_config_for_backend(
    backend: str, aggregation_subset_size: int = 1
) -> ShuffleConfig:
    """A :class:`ShuffleConfig` for one registered backend, with the
    legacy flags kept consistent for code that still reads them."""
    from repro.shuffle.backends import backend_class

    implicit = backend_class(backend).implicit_transfers
    return ShuffleConfig(
        push_based=implicit,
        auto_aggregate=implicit,
        aggregation_subset_size=aggregation_subset_size,
        backend=backend,
    )
