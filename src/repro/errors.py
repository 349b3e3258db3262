"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without catching programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation kernel is misused."""


class EventAlreadyFiredError(SimulationError):
    """Raised when succeeding or failing an event that has already fired."""


class LivenessError(SimulationError):
    """Raised when a simulation exceeds its wall-clock budget.

    The chaos campaign's liveness oracle: a run that blows through
    ``SimulationConfig.max_wall_seconds`` is flagged as a hung recovery
    instead of deadlocking the suite."""


class NetworkError(ReproError):
    """Base class for network-model errors."""


class NoRouteError(NetworkError):
    """Raised when the topology has no route between two hosts."""


class UnknownHostError(NetworkError):
    """Raised when a host or datacenter name is not present in the topology."""


class StorageError(ReproError):
    """Base class for distributed-storage errors."""


class BlockNotFoundError(StorageError):
    """Raised when a requested block id is not known to the DFS."""


class FileNotFoundInDFSError(StorageError):
    """Raised when a requested path is not present in the DFS namespace."""


class FileExistsInDFSError(StorageError):
    """Raised when creating a DFS path that already exists."""


class RDDError(ReproError):
    """Base class for RDD-engine errors."""


class LineageError(RDDError):
    """Raised when an RDD lineage graph is malformed (e.g. cyclic)."""


class PartitionError(RDDError):
    """Raised when a partition index is out of range or inconsistent."""


class SchedulerError(ReproError):
    """Base class for DAG/task scheduler errors."""


class NoEligibleExecutorError(SchedulerError):
    """Raised when a task cannot be placed on any executor at all."""


class TaskFailedError(SchedulerError):
    """Raised when a task exhausts its retry budget."""

    def __init__(self, task_id: str, attempts: int, cause: str = "") -> None:
        self.task_id = task_id
        self.attempts = attempts
        self.cause = cause
        message = f"task {task_id} failed after {attempts} attempts"
        if cause:
            message = f"{message}: {cause}"
        super().__init__(message)


class StageRecoveryError(SchedulerError):
    """Raised when a stage exhausts its lineage-resubmission budget."""

    def __init__(self, stage_name: str, resubmits: int) -> None:
        self.stage_name = stage_name
        self.resubmits = resubmits
        super().__init__(
            f"stage {stage_name} failed recovery after "
            f"{resubmits - 1} resubmission(s)"
        )


class ShuffleError(ReproError):
    """Base class for shuffle-machinery errors."""


class MapOutputMissingError(ShuffleError):
    """Raised when shuffle input for a reducer cannot be located."""


class FetchFailedError(ShuffleError):
    """A task found its boundary input gone (lost map output or staged
    transfer partition).  Mirrors Spark's ``FetchFailedException``: the
    DAG scheduler catches it, resubmits the producing parent stage from
    lineage, and retries the consumer."""

    def __init__(
        self,
        shuffle_id: int | None = None,
        transfer_id: int | None = None,
        detail: str = "",
    ) -> None:
        self.shuffle_id = shuffle_id
        self.transfer_id = transfer_id
        what = (
            f"shuffle {shuffle_id}" if shuffle_id is not None
            else f"transfer {transfer_id}"
        )
        message = f"fetch failed: {what} input missing"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class ConfigurationError(ReproError):
    """Raised when a configuration object is inconsistent."""


class WorkloadError(ReproError):
    """Raised when a workload specification is invalid."""


def parse_token(convert, token: str, error, message: str):
    """``convert(token)``, or ``error(message)`` if it is not one.

    How every spec grammar (chaos, random-schedule, arrival, tenant)
    names the token it could not read: ``message`` quotes it."""
    try:
        return convert(token)
    except ValueError:
        raise error(message) from None
