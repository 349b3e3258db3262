"""Seeded, named random streams for reproducible experiments.

Different subsystems (bandwidth jitter, failure injection, workload data
generation) draw from *independent* named streams derived from a single
root seed.  Adding draws to one subsystem therefore never perturbs the
others — a property the experiment harness relies on when comparing the
three shuffle schemes under identical conditions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(root_seed: int, stream_name: str) -> int:
    """Derive a 64-bit child seed from (root seed, stream name)."""
    digest = hashlib.sha256(f"{root_seed}:{stream_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomSource:
    """A collection of independent named RNG streams under one root seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the named stream."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]

    # ------------------------------------------------------------------
    # Convenience draws
    # ------------------------------------------------------------------
    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def gauss(self, name: str, mean: float, stddev: float) -> float:
        return self.stream(name).gauss(mean, stddev)

    def chance(self, name: str, probability: float) -> bool:
        """Bernoulli draw; probability outside [0, 1] is clamped."""
        probability = min(1.0, max(0.0, probability))
        return self.stream(name).random() < probability

    def choice(self, name: str, options: Sequence[T]) -> T:
        return self.stream(name).choice(options)

    def child(self, name: str) -> RandomSource:
        """A new RandomSource whose streams are independent of this one."""
        return RandomSource(_derive_seed(self.seed, f"child:{name}"))
