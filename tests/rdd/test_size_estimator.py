"""Logical size estimation and SizedRecord semantics."""

from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from repro.rdd.size_estimator import SizeEstimator, SizedRecord, natural_size


def test_sized_record_overrides_heuristic():
    record = SizedRecord({"big": "payload"}, natural_size=1e9)
    assert natural_size(record) == 1e9


def test_sized_record_rejects_negative_size():
    with pytest.raises(ValueError):
        SizedRecord(None, natural_size=-1)


def test_sized_record_equality_and_hash():
    a = SizedRecord("x", 10)
    b = SizedRecord("x", 10)
    c = SizedRecord("x", 20)
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_primitive_sizes_are_positive_and_ordered():
    assert natural_size(1) > 0
    assert natural_size("hello") > natural_size(1)
    assert natural_size("a" * 100) > natural_size("a")
    assert natural_size(b"bytes") > 0
    assert natural_size(None) > 0
    assert natural_size(True) > 0


def test_container_sizes_sum_members():
    assert natural_size((1, 2)) > natural_size(1) + natural_size(2)
    assert natural_size([1, 2, 3]) > natural_size([1])
    assert natural_size({"k": 1}) > natural_size({})


def test_unknown_object_gets_base_size():
    class Opaque:
        pass

    assert natural_size(Opaque()) > 0


def test_estimator_scales_sizes():
    plain = SizeEstimator(scale_factor=1.0)
    scaled = SizeEstimator(scale_factor=1000.0)
    records = [(f"w{i}", i) for i in range(10)]
    assert scaled.estimate(records) == pytest.approx(
        1000.0 * plain.estimate(records)
    )


def test_estimator_rejects_bad_scale():
    with pytest.raises(ValueError):
        SizeEstimator(scale_factor=0)


def test_estimate_walked():
    estimator = SizeEstimator()
    assert estimator.estimate_walked([1, 2, 3]) == pytest.approx(
        estimator.estimate([1, 2, 3])
    )


@given(st.lists(st.one_of(st.integers(), st.text(max_size=20))))
def test_estimate_is_additive(records):
    estimator = SizeEstimator()
    total = estimator.estimate(records)
    parts = sum(estimator.estimate([r]) for r in records)
    assert total == pytest.approx(parts)


@given(st.lists(st.integers(), max_size=50))
def test_estimate_nonnegative(records):
    assert SizeEstimator().estimate(records) >= 0


# ---------------------------------------------------------------------------
# The exact-type dispatch against the isinstance ladder it replaced
# ---------------------------------------------------------------------------
def ladder_natural_size(record):
    """``natural_size`` as it was: one isinstance test per rung and a
    generator frame per container element.  The reference."""
    if isinstance(record, SizedRecord):
        return record.natural_size
    if isinstance(record, bool) or record is None:
        return 8.0
    if isinstance(record, (int, float)):
        return 8.0
    if isinstance(record, str):
        return float(len(record)) + 8.0
    if isinstance(record, bytes):
        return float(len(record)) + 8.0
    if isinstance(record, tuple):
        return 16.0 + sum(ladder_natural_size(item) for item in record)
    if isinstance(record, (list, set, frozenset)):
        return 16.0 + sum(ladder_natural_size(item) for item in record)
    if isinstance(record, dict):
        return 16.0 + sum(
            ladder_natural_size(key) + ladder_natural_size(value)
            for key, value in record.items()
        )
    return 16.0


Pair = namedtuple("Pair", "key value")
SUBCLASSES = {
    base: type(f"Sub{base.__name__.title()}", (base,), {})
    for base in (int, float, str, bytes, tuple, list, set, frozenset, dict)
}


class SubSized(SizedRecord):
    __slots__ = ()


class Opaque:
    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, Opaque)


def _maybe_subclass(base):
    def build(value):
        return st.sampled_from((base, SUBCLASSES[base])).map(
            lambda cls: cls(value)
        )

    return build


# Full 53-bit mantissas beside the "nice" floats hypothesis favours, so
# a sum taken in another order or grouping shows in the last digit.
SIZES = st.one_of(
    st.floats(min_value=0, max_value=1e12, allow_nan=False),
    st.builds(
        lambda bits, exponent: bits * 2.0**exponent,
        st.integers(1, 2**53 - 1),
        st.integers(-60, -20),
    ),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers().flatmap(_maybe_subclass(int)),
    st.floats(allow_nan=False).flatmap(_maybe_subclass(float)),
    st.text(max_size=12).flatmap(_maybe_subclass(str)),
    st.binary(max_size=12).flatmap(_maybe_subclass(bytes)),
    st.builds(Opaque),
)
HASHABLE = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).flatmap(_maybe_subclass(tuple)),
        st.lists(inner, max_size=4).flatmap(_maybe_subclass(frozenset)),
        st.tuples(inner, inner).map(lambda pair: Pair(*pair)),
        st.builds(SizedRecord, inner, SIZES),
        st.builds(SubSized, inner, SIZES),
    ),
    max_leaves=8,
)
RECORDS = st.recursive(
    HASHABLE,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).flatmap(_maybe_subclass(tuple)),
        st.lists(inner, max_size=5).flatmap(_maybe_subclass(list)),
        st.lists(HASHABLE, max_size=5).flatmap(_maybe_subclass(set)),
        st.dictionaries(HASHABLE, inner, max_size=4).flatmap(
            _maybe_subclass(dict)
        ),
        # The shuffle's own shape: (key, SizedRecord) and (key, value).
        st.tuples(HASHABLE, st.builds(SizedRecord, inner, SIZES)),
        st.tuples(HASHABLE, inner),
        st.builds(SizedRecord, inner, SIZES),
    ),
    max_leaves=12,
)


@given(RECORDS)
def test_natural_size_equals_the_ladder(record):
    assert natural_size(record) == ladder_natural_size(record)


@given(st.lists(RECORDS, max_size=8), st.sampled_from((1.0, 0.37, 1000.0)))
def test_estimates_equal_the_ladder(records, scale):
    estimator = SizeEstimator(scale)
    # Each entry point keeps its own adder: estimate() the built-in
    # sum (compensated on Python >= 3.12), estimate_walked() a +=.
    assert estimator.estimate(records) == (
        sum(ladder_natural_size(record) for record in records) * scale
    )
    total = 0.0
    for record in records:
        total += ladder_natural_size(record)
    assert estimator.estimate_walked(iter(records)) == total * scale
