"""FailureInjector: probabilistic reducer-attempt failures.

The paper motivates Push/Aggregate partly through failure recovery: a
failed reducer under fetch-based shuffle re-fetches its input over WAN
links, while under Push/Aggregate the input already sits in the
reducer's datacenter.  The injector decides, per attempt of a
shuffle-reading task, whether that attempt fails after doing its work;
the task runner then retries, re-reading shuffle input (and re-incurring
whatever network that costs under the active shuffle mechanism).

Draws are taken from a dedicated seeded stream, so enabling failures
never perturbs workload data or bandwidth jitter, and each is named after
what the attempt *is* (:func:`task_key` and the attempt number), so a
cell draws the same failures however many tasks its process built
before it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.config import FailureConfig
from repro.simulation.random_source import RandomSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.task import Task


def task_key(task: Task) -> str:
    """The name of a task's draws: the context's job ordinal, the stage
    id within that job and the partition."""
    stage = task.stage
    return f"{stage.job}:{stage.stage_id}:{task.partition}"


class FailureInjector:
    """Stateful per-task failure decisions."""

    def __init__(
        self,
        config: FailureConfig,
        randomness: RandomSource,
        straggler_model=None,
    ) -> None:
        self.config = config
        self.randomness = randomness
        # Slow attempts, for tests: any object whose ``slowdown(
        # randomness, task_key, attempt)`` returns a CPU slowdown factor.
        self.straggler_model = straggler_model
        # Failures injected so far per task key: every attempt of a
        # partition counts, whichever Task object ran it.
        self._injected: Dict[str, int] = {}
        self.total_injected = 0

    def should_fail(self, task: Task) -> bool:
        """Decide whether this attempt of ``task`` fails.

        Respects ``max_injected_failures_per_task`` so a job always
        terminates, mirroring Spark's bounded task retries.
        """
        probability = self.config.reducer_failure_probability
        if probability <= 0:
            return False
        key = task_key(task)
        already = self._injected.get(key, 0)
        if already >= self.config.max_injected_failures_per_task:
            return False
        if not self.randomness.chance(
            f"failure:{key}:{task.attempts}", probability
        ):
            return False
        self._injected[key] = already + 1
        self.total_injected += 1
        return True

    def straggler_slowdown(self, task: Task) -> float:
        """CPU slowdown multiplier for this attempt (1.0 = healthy)."""
        if self.straggler_model is None:
            return 1.0
        return self.straggler_model.slowdown(
            self.randomness, task_key(task), task.attempts
        )
