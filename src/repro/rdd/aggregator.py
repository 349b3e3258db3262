"""Key-value aggregation used by combiners and reduce-side merging.

Mirrors Spark's ``Aggregator[K, V, C]``: a combiner is created from the
first value for a key, extended with further values, and combiners from
different map tasks (or a pre-combined transfer) are merged together.

The records an aggregator folds may be shared with other cells of an
experiment (:mod:`repro.rdd.memo`), so a combiner taken from an input
record is never changed in place: ``merge_combiners`` returns a new
object.  ``merge_value`` may grow the accumulator ``create_combiner``
built when that is a fresh object (the group-by-key list is).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

Key = Any
Value = Any
Combiner = Any


class Aggregator:
    """create/merge functions for combine-by-key semantics."""

    def __init__(
        self,
        create_combiner: Callable[[Value], Combiner],
        merge_value: Callable[[Combiner, Value], Combiner],
        merge_combiners: Callable[[Combiner, Combiner], Combiner],
    ) -> None:
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners

    # Two aggregators built from the same three functions are the same
    # aggregator: what lets a memo key written on one context be found
    # from the next, which builds its lineage afresh.
    def _functions(self) -> Tuple[Callable, Callable, Callable]:
        return (self.create_combiner, self.merge_value, self.merge_combiners)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._functions() == other._functions()  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash(self._functions())

    # ------------------------------------------------------------------
    # Bulk operations used by the shuffle machinery
    # ------------------------------------------------------------------
    def combine_values(
        self, records: Iterable[Tuple[Key, Value]]
    ) -> List[Tuple[Key, Combiner]]:
        """Map-side combine: fold raw (k, v) records into (k, combiner)."""
        combined: Dict[Key, Combiner] = {}
        for key, value in records:
            if key in combined:
                combined[key] = self.merge_value(combined[key], value)
            else:
                combined[key] = self.create_combiner(value)
        return list(combined.items())

    def combine_combiners(
        self, records: Iterable[Tuple[Key, Combiner]]
    ) -> List[Tuple[Key, Combiner]]:
        """Reduce-side merge of already-combined (k, combiner) records."""
        merged: Dict[Key, Combiner] = {}
        for key, combiner in records:
            if key in merged:
                merged[key] = self.merge_combiners(merged[key], combiner)
            else:
                merged[key] = combiner
        return list(merged.items())

    @classmethod
    def from_reduce_function(
        cls, func: Callable[[Value, Value], Value]
    ) -> Aggregator:
        """The reduceByKey aggregator: combiner type == value type."""
        return cls(
            create_combiner=_identity,
            merge_value=func,
            merge_combiners=func,
        )

    @classmethod
    def group_by_key(cls) -> Aggregator:
        """The groupByKey aggregator: combiner is a list of values."""
        return cls(
            create_combiner=_singleton,
            merge_value=_append,
            merge_combiners=_concatenate,
        )


def _identity(value: Value) -> Value:
    return value


def _singleton(value: Value) -> List[Value]:
    return [value]


def _append(acc: List[Value], value: Value) -> List[Value]:
    # ``acc`` is a list _singleton made during this very fold.
    acc.append(value)
    return acc


def _concatenate(left: List[Value], right: List[Value]) -> List[Value]:
    # Not ``left.extend``: combine_combiners adopts the first combiner it
    # sees for a key, and that list belongs to an input record.
    return left + right
