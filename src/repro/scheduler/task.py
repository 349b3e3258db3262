"""Task descriptions and results."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.stage import Stage

_task_ids = itertools.count()


class Task:
    """One unit of placed work: compute one partition of one stage."""

    # PERF001 hot-path class: one instance per (partition, attempt), so
    # streams allocate tens of thousands; __slots__ also rejects typo'd
    # attribute writes from the schedulers.
    __slots__ = (
        "task_id",
        "stage",
        "partition",
        "preferred_hosts",
        "action",
        "submit_time",
        "attempts",
        "recovery",
        "locality_wait_host",
        "locality_wait_datacenter",
        "allowed_hosts",
    )

    def __init__(
        self,
        stage: Stage,
        partition: int,
        preferred_hosts: List[str],
        action: Optional[str] = None,
    ) -> None:
        self.task_id = f"t{next(_task_ids)}"
        self.stage = stage
        self.partition = partition
        self.preferred_hosts = list(preferred_hosts)
        # Only result-stage tasks carry an action ("collect"/"count"/"save").
        self.action = action
        self.submit_time: float = 0.0
        self.attempts = 0
        # True once this task is recovery work: a retry after an
        # injected failure or FetchFailed, a relaunch after an executor
        # loss, or a lineage-resubmitted parent partition.  The shuffle
        # backends tag this task's flows as recovery bytes.
        self.recovery = False
        # Optional per-task delay-scheduling overrides.  Receiver tasks
        # use a very long datacenter wait so they stay in the aggregator
        # datacenter even when its slots are momentarily busy.
        self.locality_wait_host: Optional[float] = None
        self.locality_wait_datacenter: Optional[float] = None
        # Multi-tenant executor-pool partition: when set, the task may
        # only run on these hosts (the inter-job scheduler's share for
        # its job).  None means the whole cluster, as before.
        self.allowed_hosts: Optional[frozenset] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Task {self.task_id} {self.stage.name}[{self.partition}] "
            f"prefs={self.preferred_hosts}>"
        )


@dataclass
class TaskResult:
    """What a finished task reports back to the DAG scheduler."""

    task: Task
    host: str
    started_at: float
    finished_at: float
    attempts: int
    records: Optional[List[Any]] = None  # result-stage output only
    shuffle_bytes_fetched: float = 0.0
    shuffle_bytes_refetched: float = 0.0
    output_bytes: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at
