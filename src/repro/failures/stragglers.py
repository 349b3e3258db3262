"""Straggler model: occasional slow task attempts.

Stage completion is gated by its slowest task ("the stragglers will
directly affect the overall stage completion time", §II-B).  The model
makes a small fraction of attempts run their CPU work a configurable
factor slower, drawn from a dedicated random stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.random_source import RandomSource


@dataclass(frozen=True)
class StragglerModel:
    """Bernoulli stragglers with a uniform slowdown range."""

    probability: float = 0.05
    min_slowdown: float = 1.5
    max_slowdown: float = 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        if not 1 <= self.min_slowdown <= self.max_slowdown:
            raise ValueError("need 1 <= min_slowdown <= max_slowdown")

    def slowdown(
        self, randomness: RandomSource, task_key: str, attempt: int
    ) -> float:
        stream = f"straggler:{task_key}:{attempt}"
        if not randomness.chance(stream, self.probability):
            return 1.0
        return randomness.uniform(
            f"{stream}:factor", self.min_slowdown, self.max_slowdown
        )
