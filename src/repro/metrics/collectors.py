"""Run-time metrics collection (the Spark listener bus, in miniature)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.stage import Stage
    from repro.scheduler.task import Task, TaskResult


@dataclass
class TaskSpan:
    """One finished task."""

    task_id: str
    stage_id: int
    partition: int
    host: str
    started_at: float
    finished_at: float
    attempts: int
    shuffle_bytes_fetched: float
    output_bytes: float


@dataclass
class StageSpan:
    """One finished stage (Fig. 9's unit of reporting)."""

    stage_id: int
    name: str
    kind: str
    submitted_at: float
    finished_at: Optional[float] = None
    tasks: List[TaskSpan] = field(default_factory=list)

    @property
    def duration(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at


@dataclass
class JobMetrics:
    """Everything measured about one job run."""

    started_at: float = 0.0
    finished_at: Optional[float] = None
    stages: List[StageSpan] = field(default_factory=list)
    injected_failures: int = 0
    # Filled in by the experiment harness from the traffic monitor.
    cross_dc_bytes: float = 0.0
    total_bytes: float = 0.0

    @property
    def duration(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at


class MetricsCollector:
    """Receives scheduler callbacks and accumulates a JobMetrics."""

    def __init__(self) -> None:
        self.job = JobMetrics()
        self._stage_spans: Dict[int, StageSpan] = {}

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def on_job_start(self, now: float) -> None:
        self.job.started_at = now

    def on_job_end(self, now: float) -> None:
        self.job.finished_at = now

    def on_stage_start(self, stage: Stage, now: float) -> None:
        span = StageSpan(
            stage_id=stage.stage_id,
            name=stage.name,
            kind=stage.kind.value,
            submitted_at=now,
        )
        self._stage_spans[stage.stage_id] = span
        self.job.stages.append(span)

    def on_stage_end(self, stage: Stage, now: float) -> None:
        span = self._stage_spans.get(stage.stage_id)
        if span is not None:
            span.finished_at = now

    def on_task_end(self, result: TaskResult) -> None:
        span = self._stage_spans.get(result.task.stage.stage_id)
        if span is None:
            return
        span.tasks.append(
            TaskSpan(
                task_id=result.task.task_id,
                stage_id=result.task.stage.stage_id,
                partition=result.task.partition,
                host=result.host,
                started_at=result.started_at,
                finished_at=result.finished_at,
                attempts=result.attempts,
                shuffle_bytes_fetched=result.shuffle_bytes_fetched,
                output_bytes=result.output_bytes,
            )
        )

    def on_task_attempt_failed(self, task: Task, host: str, now: float) -> None:
        self.job.injected_failures += 1
