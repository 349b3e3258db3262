"""Logical size estimation for records.

The simulation runs with record counts scaled down by ``scale_factor``
relative to the paper's datasets, but charges network/disk/CPU time for
*logical* bytes at paper scale.  Every record therefore has a logical
size: its natural serialized size heuristic multiplied by the scale
factor.  Workload generators may also attach an explicit size by using
:class:`SizedRecord`.

A :class:`Partition` is a record list that remembers its own totals: the
partitions of a cached dataset (DESIGN.md, "Data plane") are sized once
per dataset instead of once per walk.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple


class SizedRecord:
    """A record with an explicit natural size in bytes.

    Wraps a payload whose cost is not well captured by the generic
    heuristic — e.g. a "document" record standing for many raw text lines.
    """

    __slots__ = ("payload", "natural_size")

    def __init__(self, payload: Any, natural_size: float) -> None:
        if natural_size < 0:
            raise ValueError("natural_size must be >= 0")
        self.payload = payload
        self.natural_size = float(natural_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SizedRecord({self.payload!r}, {self.natural_size})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SizedRecord)
            and self.payload == other.payload
            and self.natural_size == other.natural_size
        )

    def __hash__(self) -> int:
        return hash((self.payload, self.natural_size))


class Partition(list):
    """The records of one partition of a cached dataset: read-only, sized
    once, and a memo key by identity.

    Every cell that runs over the dataset is handed this same object, so
    nothing may change it or a record in it once it is built
    (``REPRO_SANITIZE=1`` recomputes every memo hit to check).
    ``memo`` is the dataset's :class:`~repro.rdd.memo.DataMemo` and
    ``origin`` the ``(step, *arguments)`` call that produced the
    partition (``None`` for the dataset's input); the two natural byte
    totals are filled by the first :meth:`SizeEstimator.estimate` /
    ``estimate_walked`` that walks the records — one slot per
    summation order, so a later call reads the float the same call
    computed.
    """

    __slots__ = ("memo", "origin", "summed", "walked")
    # Identity, not contents: what makes a Partition a memo key, and the
    # one thing about a list subclass the memo's dict needs.
    __hash__ = object.__hash__

    def __init__(
        self,
        records: Iterable[Any],
        memo: Any,
        origin: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        super().__init__(records)
        self.memo = memo
        self.origin = origin
        self.summed: Optional[float] = None
        self.walked: Optional[float] = None

    def __reduce__(self):
        # Pickles as its records: a memo holds closures and never leaves
        # the process (pool workers re-root the datasets they are sent).
        return (list, (list(self),))


def view(records: List[Any]) -> List[Any]:
    """What a reader of stored records is handed: the defensive copy the
    stores have always made — or the Partition itself, which nobody may
    change, so sharing it is the copy."""
    return records if type(records) is Partition else list(records)


# Natural serialized-size heuristics, roughly matching Java object sizes.
_NUMBER_SIZE = 8.0
_BASE_OBJECT_SIZE = 16.0


def _ladder_size(record: Any) -> float:
    """``natural_size`` for subclasses (a namedtuple, an ``int`` enum, a
    ``SizedRecord`` subclass...): the first base class that matches."""
    if isinstance(record, SizedRecord):
        return record.natural_size
    if isinstance(record, (bool, int, float)):
        return _NUMBER_SIZE
    if isinstance(record, (str, bytes)):
        return _text_size(record)
    if isinstance(record, (tuple, list, set, frozenset)):
        return _collection_size(record)
    if isinstance(record, dict):
        return _mapping_size(record)
    return _BASE_OBJECT_SIZE


def _text_size(record: Any) -> float:
    return float(len(record)) + _NUMBER_SIZE


def _collection_size(record: Any) -> float:
    return _BASE_OBJECT_SIZE + sum(map(natural_size, record))


def _item_size(item: Tuple[Any, Any]) -> float:
    return natural_size(item[0]) + natural_size(item[1])


def _mapping_size(record: Any) -> float:
    return _BASE_OBJECT_SIZE + sum(map(_item_size, record.items()))


_FIXED_SIZES = {
    bool: _NUMBER_SIZE,
    type(None): _NUMBER_SIZE,
    int: _NUMBER_SIZE,
    float: _NUMBER_SIZE,
}
# Exact type -> sizer; any other type takes the isinstance ladder.
_SIZERS = {
    str: _text_size,
    bytes: _text_size,
    tuple: _collection_size,
    list: _collection_size,
    set: _collection_size,
    frozenset: _collection_size,
    dict: _mapping_size,
}


def natural_size(record: Any) -> float:
    """Estimate the serialized size of one record in natural bytes."""
    kind = type(record)
    if kind is SizedRecord:
        return record.natural_size
    if kind is tuple and len(record) == 2:
        # The shuffle's record shape, (key, value), without a frame per
        # element.  a + b is what sum() makes of two terms on every
        # supported Python, compensated summation included.
        key, value = record
        kind = type(key)
        if kind is str:
            key_size = float(len(key)) + _NUMBER_SIZE
        elif kind is int:
            key_size = _NUMBER_SIZE
        else:
            key_size = natural_size(key)
        kind = type(value)
        if kind is SizedRecord:
            value_size = value.natural_size
        elif kind is str:
            value_size = float(len(value)) + _NUMBER_SIZE
        elif kind is int:
            value_size = _NUMBER_SIZE
        else:
            value_size = natural_size(value)
        return _BASE_OBJECT_SIZE + (key_size + value_size)
    size = _FIXED_SIZES.get(kind)
    if size is not None:
        return size
    return _SIZERS.get(kind, _ladder_size)(record)


class SizeEstimator:
    """Converts records to logical (paper-scale) bytes."""

    def __init__(self, scale_factor: float = 1.0) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = float(scale_factor)

    def estimate(self, records: Iterable[Any]) -> float:
        if type(records) is not Partition:
            return sum(map(natural_size, records)) * self.scale_factor
        if records.summed is None:
            records.summed = sum(map(natural_size, records))
        return records.summed * self.scale_factor

    def estimate_walked(self, records: Iterable[Any]) -> float:
        """``estimate`` summed by a running ``+=`` instead of ``sum()``:
        the operator charges' order, kept so no charged float moves."""
        if type(records) is Partition and records.walked is not None:
            return records.walked * self.scale_factor
        total = 0.0
        for record in records:
            total += natural_size(record)
        if type(records) is Partition:
            records.walked = total
        return total * self.scale_factor
