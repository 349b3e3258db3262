"""DataMemo: the pure data-plane steps over one cached dataset, run once.

The cells of an experiment matrix run the same RDD program over the same
seeded dataset; only placement, scheduling and the network differ.  Each
entry of the runner's dataset cache is a :class:`DataMemo`: it roots the
input partitions as :class:`~repro.rdd.size_estimator.Partition` objects
and remembers the result of every pure step taken over them (narrow ops,
shard split and combine, reduce-side gather / merge / sort / cogroup) as
further Partitions, so a later cell is handed the objects the first one
computed.  DESIGN.md §5 "Data plane" has the whole story.

Key rule: ``(step function, *arguments)``.  Partitions and user functions
count by identity, an :class:`~repro.rdd.aggregator.Aggregator` by the
identity of its three functions, a partitioner by value (a range
partitioner drawn from another run seed is another key).  Keys keep their
objects alive; dropping the cache entry is the only invalidation.

Records not rooted here (``parallelize``, a hand-written input file) are
plain lists and never reach this module: every call site tests
``type(records) is Partition`` first.  What *is* shared is read-only, and
with the sanitizer on (``REPRO_SANITIZE=1``) that is enforced.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.analysis.sanitizer import InvariantViolation, get_sanitizer
from repro.rdd.size_estimator import Partition, SizeEstimator


class DataMemo:
    """Input partitions of one dataset plus everything derived from them."""

    __slots__ = ("partitions", "table", "hits", "misses")

    def __init__(self, partitions: Iterable[Iterable[Any]]) -> None:
        self.table: Dict[Tuple[Any, ...], Any] = {}
        self.hits = 0
        self.misses = 0
        self.partitions: List[Partition] = [
            Partition(records, self) for records in partitions
        ]

    def derive(self, step: Callable[..., Any], *args: Any, nested: bool = False):
        """``step(*args)`` as a Partition — a tuple of them when the step
        returns one record list per reducer (``nested``) — computed the
        first time this dataset sees the call."""
        key = (step, *args)
        found = self.table.get(key)
        sanitizer = get_sanitizer()
        if sanitizer is not None:
            sanitizer.checks["memo"] += 1
        if found is not None:
            self.hits += 1
            if sanitizer is not None:
                self._recheck(key, found, nested)
            return found
        self.misses += 1
        result = step(*args) if sanitizer is None else self._watched(key)
        if nested:
            found = tuple(Partition(records, self, key) for records in result)
        else:
            found = Partition(result, self, key)
        self.table[key] = found
        return found

    # ------------------------------------------------------------------
    # The aliasing oracle (sanitizer on)
    # ------------------------------------------------------------------
    def _watched(self, key: Tuple[Any, ...]) -> Any:
        """Run the step; it must leave the Partitions it reads as they
        were, record for record (their pickles are the fingerprint)."""
        step, *args = key
        shared = [arg for arg in args if type(arg) is Partition]
        before = pickle.dumps(shared)
        result = step(*args)
        if pickle.dumps(shared) != before:
            raise InvariantViolation(
                f"data memo: {self._name(key)} changed a partition it was "
                "given in place; shared records are read-only"
            )
        return result

    def _recheck(self, key: Tuple[Any, ...], found: Any, nested: bool) -> None:
        """A hit must equal a fresh run of the step over the same
        arguments: records, count, and the byte totals it carries."""
        fresh = self._watched(key)
        plain = SizeEstimator()
        for stored, again in zip(found, fresh) if nested else [(found, fresh)]:
            if stored != again:
                problem = (
                    f"holds {len(stored)} records that differ from the "
                    f"{len(again)} of a recompute"
                )
            elif stored.summed not in (None, plain.estimate(again)) or (
                stored.walked not in (None, plain.estimate_walked(again))
            ):
                problem = (
                    f"carries byte totals ({stored.summed!r}, "
                    f"{stored.walked!r}) that a recompute does not"
                )
            else:
                continue
            raise InvariantViolation(
                f"data memo: {self._name(key)} {problem}; a stored record "
                "was changed in place"
            )

    @staticmethod
    def _name(key: Tuple[Any, ...]) -> str:
        """A memo key as a violation message spells it: the step, and each
        partition by the step that made it or its place in the input."""
        step, *args = key
        names = []
        for arg in args:
            if type(arg) is not Partition:
                names.append(getattr(arg, "__qualname__", None) or repr(arg))
            elif arg.origin is not None:
                names.append(f"{arg.origin[0].__qualname__}(...)")
            else:
                names.extend(
                    f"input partition {index}"
                    for index, root in enumerate(arg.memo.partitions)
                    if root is arg
                )
        return f"{step.__qualname__}({', '.join(names)})"
