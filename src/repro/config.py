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


# Multiplies the byte cost of sorting operators.
SORT_FACTOR = 1.2
# In-memory combining / merging is much cheaper per byte than the
# workload's primary record processing (hash-map updates vs. parsing).
COMBINE_FACTOR = 0.3
# Partitioning records into shuffle shards is a single cheap pass.
SHUFFLE_WRITE_FACTOR = 0.2


@dataclass(frozen=True)
class CostModel:
    """Charges simulated CPU time for computation.

    ``cpu_bytes_per_second`` is the per-core streaming rate over *logical*
    bytes (the paper-scale volumes), so CPU time reflects paper-scale data
    even though the record count is scaled down.
    """

    cpu_bytes_per_second: float = 40e6

    def compute_time(self, logical_bytes: float) -> float:
        if logical_bytes < 0:
            raise ValueError("negative computation volume")
        return logical_bytes / self.cpu_bytes_per_second

    def sort_time(self, logical_bytes: float) -> float:
        return SORT_FACTOR * self.compute_time(logical_bytes)

    def combine_time(self, logical_bytes: float) -> float:
        return COMBINE_FACTOR * self.compute_time(logical_bytes)

    def shuffle_write_time(self, logical_bytes: float) -> float:
        return SHUFFLE_WRITE_FACTOR * self.compute_time(logical_bytes)


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

    def __post_init__(self) -> None:
        if self.speculation_multiplier < 1:
            raise ConfigurationError("speculation_multiplier must be >= 1")
        if not 0 < self.speculation_quantile <= 1:
            raise ConfigurationError(
                "speculation_quantile must be in (0, 1]"
            )
        if self.speculation_interval <= 0:
            raise ConfigurationError("speculation_interval must be > 0")


@dataclass(frozen=True)
class FailureConfig:
    """Task failure injection (paper Fig. 2 / §III-A)."""

    reducer_failure_probability: float = 0.0
    max_injected_failures_per_task: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.reducer_failure_probability <= 1.0:
            raise ConfigurationError(
                "reducer_failure_probability must be in [0, 1]"
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
    :mod:`repro.shuffle.backends`: ``"fetch"`` is Spark's default
    fetch-based shuffle, ``"push_aggregate"`` the paper's Push/Aggregate
    (Spark's ``spark.shuffle.aggregation``: an implicit ``transfer_to()``
    before every shuffle), then ``"pre_merge"``, ``"remote"``, ...
    """

    backend: str = "fetch"
    # Number of datacenters shuffle input is aggregated into (§III-B uses
    # a single datacenter "as an example"; >1 is our ablation extension).
    aggregation_subset_size: int = 1

    def validate(self) -> None:
        if self.aggregation_subset_size < 1:
            raise ConfigurationError("aggregation_subset_size must be >= 1")
        # Imported lazily: the backend modules depend on config for their
        # own imports.
        from repro.shuffle.backends import backend_names

        if self.backend not in backend_names():
            known = ", ".join(sorted(backend_names()))
            raise ConfigurationError(
                f"unknown shuffle backend {self.backend!r} "
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


def backend_config(backend: str, **overrides) -> SimulationConfig:
    """A configuration running any registered shuffle backend by name."""
    return SimulationConfig(shuffle=ShuffleConfig(backend=backend), **overrides)
