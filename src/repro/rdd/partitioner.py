"""Partitioners: deterministic key -> reduce-partition mapping.

:class:`HashPartitioner` matches Spark's default (``hash(key) mod n``
with a stable string hash so runs are reproducible across processes).
:class:`RangePartitioner` supports sort operations: boundaries are chosen
from a sample of keys so output partitions are roughly balanced, exactly
the load-balancing tendency the paper's analysis assumes ("all shards of
a particular partition tend to be about the same size", §III-B).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, List, Sequence


def stable_hash(key: Any) -> int:
    """A process-independent hash (Python's ``hash`` is salted for str)."""
    # The shuffle's key types by exact type first; everything else
    # (subclasses, bytes, tuples, arbitrary objects) takes the ladder.
    kind = type(key)
    if kind is str:
        return zlib.crc32(key.encode("utf-8", "replace")) & 0x7FFFFFFF
    if kind is int:
        return key & 0x7FFFFFFF
    return _ladder_hash(key)


def _ladder_hash(key: Any) -> int:
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "replace")) & 0x7FFFFFFF
    if isinstance(key, bytes):
        return zlib.crc32(key) & 0x7FFFFFFF
    if isinstance(key, tuple):
        value = 0x345678
        for item in key:
            value = (value * 1000003) ^ stable_hash(item)
        return value & 0x7FFFFFFF
    return hash(key) & 0x7FFFFFFF


class Partitioner:
    """Maps a record key to a partition index in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Spark's default: stable hash modulo partition count."""

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions


class RangePartitioner(Partitioner):
    """Ordered partitioning from sampled boundaries (used by sortByKey)."""

    def __init__(self, num_partitions: int, sample_keys: Sequence[Any]) -> None:
        super().__init__(num_partitions)
        self.boundaries: List[Any] = _choose_boundaries(
            sample_keys, num_partitions
        )

    def partition(self, key: Any) -> int:
        return bisect.bisect_right(self.boundaries, key)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and self.num_partitions == other.num_partitions
            and self.boundaries == other.boundaries
        )

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((type(self).__name__, self.num_partitions, tuple(self.boundaries)))


def _choose_boundaries(sample_keys: Sequence[Any], num_partitions: int) -> List[Any]:
    """Pick ``num_partitions - 1`` split points from sorted samples."""
    if num_partitions == 1 or not sample_keys:
        return []
    ordered = sorted(sample_keys)
    boundaries: List[Any] = []
    for split in range(1, num_partitions):
        index = split * len(ordered) // num_partitions
        index = min(index, len(ordered) - 1)
        candidate = ordered[index]
        if not boundaries or candidate > boundaries[-1]:
            boundaries.append(candidate)
    return boundaries
