"""Partitioners: stability, range ordering, and balance."""

import enum
import zlib
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdd.partitioner import (
    HashPartitioner,
    RangePartitioner,
    stable_hash,
)

keys = st.one_of(
    st.integers(), st.text(max_size=30), st.binary(max_size=30),
    st.tuples(st.integers(), st.text(max_size=10)),
)


@given(keys)
def test_stable_hash_is_deterministic(key):
    assert stable_hash(key) == stable_hash(key)
    assert 0 <= stable_hash(key) < 2 ** 31


def _reference_hash(key):
    """``stable_hash`` as the isinstance ladder it was before it learned
    to dispatch on the exact type first."""
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "replace")) & 0x7FFFFFFF
    if isinstance(key, bytes):
        return zlib.crc32(key) & 0x7FFFFFFF
    if isinstance(key, tuple):
        value = 0x345678
        for item in key:
            value = (value * 1000003) ^ _reference_hash(item)
        return value & 0x7FFFFFFF
    return hash(key) & 0x7FFFFFFF


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2**40 + 3


class _Name(str):
    pass


_Pair = namedtuple("_Pair", "left right")

_leaves = st.one_of(
    st.integers(),
    st.booleans(),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.sampled_from(list(_Colour)),
    st.text(max_size=10).map(_Name),
    st.floats(allow_nan=False),
    st.none(),
    st.frozensets(st.integers(), max_size=3),
)
_any_key = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(inner), st.tuples(inner, inner), st.builds(_Pair, inner, inner)
    ),
    max_leaves=6,
)


@settings(max_examples=300)
@given(_any_key)
def test_stable_hash_equals_the_isinstance_ladder(key):
    """Subclasses (bool, an int enum, a str subclass, a namedtuple),
    bytes, nested tuples and objects hashed by ``hash`` all land where
    the ladder put them."""
    assert stable_hash(key) == _reference_hash(key)


@given(keys, st.integers(min_value=1, max_value=64))
def test_hash_partitioner_in_range(key, n):
    partitioner = HashPartitioner(n)
    index = partitioner.partition(key)
    assert 0 <= index < n


def test_hash_partitioner_spreads_keys():
    partitioner = HashPartitioner(8)
    counts = Counter(
        partitioner.partition(f"key-{i}") for i in range(8000)
    )
    assert len(counts) == 8
    for count in counts.values():
        assert 700 < count < 1300  # roughly uniform


def test_partitioner_requires_positive_count():
    with pytest.raises(ValueError):
        HashPartitioner(0)


def test_hash_partitioner_equality():
    assert HashPartitioner(4) == HashPartitioner(4)
    assert HashPartitioner(4) != HashPartitioner(8)


def test_range_partitioner_orders_partitions():
    partitioner = RangePartitioner(4, sample_keys=list(range(100)))
    previous = -1
    for key in range(100):
        index = partitioner.partition(key)
        assert index >= previous or index == previous
        previous = max(previous, index)
    assert partitioner.partition(-1000) == 0
    assert partitioner.partition(10_000) == 3


@given(
    st.lists(st.integers(-1000, 1000), min_size=2, max_size=300),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_range_partitioner_is_monotone(sample, n):
    partitioner = RangePartitioner(n, sample)
    ordered = sorted(set(sample))
    indices = [partitioner.partition(key) for key in ordered]
    assert indices == sorted(indices)
    assert all(0 <= index < n for index in indices)


def test_range_partitioner_balances_uniform_keys():
    sample = list(range(0, 10_000, 7))
    partitioner = RangePartitioner(8, sample)
    counts = Counter(partitioner.partition(key) for key in range(10_000))
    assert len(counts) == 8
    for count in counts.values():
        assert 800 < count < 1700


def test_range_partitioner_single_partition():
    partitioner = RangePartitioner(1, [1, 2, 3])
    assert partitioner.boundaries == []
    assert partitioner.partition(99) == 0


def test_range_partitioner_empty_sample():
    partitioner = RangePartitioner(4, [])
    assert partitioner.partition("anything") == 0


def test_range_partitioner_duplicate_heavy_sample():
    partitioner = RangePartitioner(4, [5] * 100 + [6])
    # Boundaries must stay strictly increasing despite duplicates.
    assert partitioner.boundaries == sorted(set(partitioner.boundaries))
    assert partitioner.partition(4) == 0
    assert partitioner.partition(7) >= partitioner.partition(5)
