"""Statistics used by the figures: trimmed mean, median, IQR."""

import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.metrics.stats import (
    add_exact,
    interquartile_range,
    percentile,
    reduction_percent,
    summarize,
    trimmed_mean,
)

floats = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100
)


def test_trimmed_mean_drops_min_and_max_of_ten():
    """The paper's methodology: 10 runs, drop max and min, average."""
    values = [100.0] * 8 + [0.0, 1000.0]
    assert trimmed_mean(values, 0.1) == pytest.approx(100.0)


def test_trimmed_mean_small_samples_fall_back_to_mean():
    assert trimmed_mean([1.0, 2.0], 0.1) == pytest.approx(1.5)


def test_trimmed_mean_validation():
    with pytest.raises(ValueError):
        trimmed_mean([])
    with pytest.raises(ValueError):
        trimmed_mean([1.0], trim_fraction=0.6)


def test_median_odd_and_even():
    assert summarize([3.0, 1.0, 2.0]).median == 2.0
    assert summarize([1.0, 2.0, 3.0, 4.0]).median == 2.5


def test_iqr_of_uniform_sequence():
    q25, q75 = interquartile_range([float(x) for x in range(1, 101)])
    assert q25 == pytest.approx(25.75)
    assert q75 == pytest.approx(75.25)


def test_summarize_fields_consistent():
    stats = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert stats.count == 5
    assert stats.minimum == 1.0
    assert stats.maximum == 5.0
    assert stats.median == 3.0
    assert stats.mean == pytest.approx(3.0)
    assert stats.q25 <= stats.median <= stats.q75
    assert stats.iqr_width == pytest.approx(stats.q75 - stats.q25)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_reduction_percent():
    assert reduction_percent(100.0, 27.0) == pytest.approx(73.0)
    assert reduction_percent(100.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        reduction_percent(0.0, 1.0)


@given(floats)
def test_trimmed_mean_within_minmax(values):
    result = trimmed_mean(values)
    assert min(values) - 1e-9 <= result <= max(values) + 1e-9


@given(floats)
def test_summary_orderings(values):
    stats = summarize(values)
    assert stats.minimum <= stats.q25 <= stats.median + 1e-9
    assert stats.median <= stats.q75 + 1e-9
    assert stats.q75 <= stats.maximum + 1e-9
    # Tolerance: summing identical floats can drift by an ULP or two.
    span = max(1.0, abs(stats.maximum), abs(stats.minimum))
    assert stats.minimum - 1e-9 * span <= stats.mean
    assert stats.mean <= stats.maximum + 1e-9 * span


@given(floats)
def test_trimming_reduces_or_keeps_spread_influence(values):
    """Adding one extreme outlier moves the trimmed mean less than the
    plain mean (for samples big enough to trim)."""
    if len(values) < 21:
        return
    outlier = max(values) * 10 + 1e6
    plain_shift = abs(
        (sum(values) + outlier) / (len(values) + 1)
        - sum(values) / len(values)
    )
    trimmed_shift = abs(
        trimmed_mean(values + [outlier]) - trimmed_mean(values)
    )
    assert trimmed_shift <= plain_shift + 1e-6


# ----------------------------------------------------------------------
# percentile (tail-latency reporting for per-tenant JCTs)
# ----------------------------------------------------------------------
def test_percentile_boundaries():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == summarize(values).median == 2.5


def test_percentile_interpolates_between_ranks():
    # Position 0.95 * 3 = 2.85 between 3.0 and 4.0.
    assert percentile([1.0, 2.0, 3.0, 4.0], 95) == pytest.approx(3.85)


def test_percentile_single_element():
    for q in (0, 37.5, 95, 100):
        assert percentile([7.0], q) == 7.0


def test_percentile_rejects_out_of_range_q():
    for bad in (-0.1, 100.1, 1000):
        with pytest.raises(ValueError):
            percentile([1.0], bad)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p95_p99_conventions():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 95) == pytest.approx(95.05)
    assert percentile(values, 99) == pytest.approx(99.01)


@given(floats, st.floats(0, 100))
def test_percentile_is_bounded_and_monotone(values, q):
    ordered = sorted(values)
    result = percentile(values, q)
    assert ordered[0] <= result <= ordered[-1]
    assert percentile(values, 0) <= result <= percentile(values, 100)


# Byte counts as the per-tenant accounts see them: whole-byte flow
# sizes, the fractional bytes a cancelled flow delivered, and the 0.0 a
# flow cancelled before it moved lands — from 1 B to 1e12 B.
byte_counts = st.one_of(
    st.just(0.0),
    st.integers(1, 10**12).map(float),
    st.floats(1.0, 1e12),
)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(byte_counts, max_size=300))
def test_add_exact_partials_fsum_to_the_fsum_of_every_value(values):
    partials: list = []
    for value in values:
        add_exact(partials, value)
    assert math.fsum(partials).hex() == math.fsum(values).hex()
