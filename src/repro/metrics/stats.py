"""Statistics used in the paper's figures.

Fig. 7 reports a 10 %-trimmed mean over 10 runs ("the maximum and the
minimum values are invalidated before we compute the average") with
error bars showing the interquartile range and the median.  The same
treatment is applied per stage in Fig. 9.

:func:`add_exact` keeps a running sum exactly, for the per-tenant byte
accounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


def add_exact(partials: List[float], value: float) -> None:
    """Fold ``value`` into ``partials``, the exact running sum.

    Shewchuk's non-overlapping partials, as :func:`math.fsum` keeps them
    internally: their exact sum is the exact sum of every value folded
    in, so ``fsum(partials)`` equals ``fsum`` of the whole list of
    values bit for bit, in any order, from a few floats instead of one
    per value.
    """
    kept = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[kept] = low
            kept += 1
        value = high
    partials[kept:] = [value]


def trimmed_mean(values: Sequence[float], trim_fraction: float = 0.1) -> float:
    """Mean after dropping the top and bottom ``trim_fraction`` of values.

    With 10 values and the default fraction this drops exactly the
    maximum and the minimum, matching the paper's methodology.
    """
    if not values:
        raise ValueError("trimmed_mean of empty sequence")
    if not 0 <= trim_fraction < 0.5:
        raise ValueError("trim_fraction must be in [0, 0.5)")
    ordered = sorted(values)
    drop = int(len(ordered) * trim_fraction)
    if drop > 0 and len(ordered) > 2 * drop:
        ordered = ordered[drop:-drop]
    return sum(ordered) / len(ordered)


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted values."""
    if not ordered:
        raise ValueError("quantile of empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    # a + (b - a) * w, not (1-w)*a + w*b: the two-product form can
    # underflow both terms to zero on subnormal inputs, landing *below*
    # ordered[low] and breaking min <= q25 <= median orderings.
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``0 <= q <= 100``) of ``values``.

    Linear interpolation between closest ranks — ``percentile(v, 50)``
    is the median, matching numpy's default method.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    return _quantile(sorted(values), q / 100.0)


def interquartile_range(values: Sequence[float]) -> Tuple[float, float]:
    """(25th percentile, 75th percentile)."""
    ordered = sorted(values)
    return _quantile(ordered, 0.25), _quantile(ordered, 0.75)


@dataclass(frozen=True)
class SummaryStats:
    """The per-bar summary the paper's figures display."""

    count: int
    mean: float
    trimmed: float
    median: float
    q25: float
    q75: float
    minimum: float
    maximum: float

    @property
    def iqr_width(self) -> float:
        return self.q75 - self.q25


def summarize(values: Sequence[float]) -> SummaryStats:
    if not values:
        raise ValueError("summarize of empty sequence")
    ordered = sorted(values)
    q25, q75 = interquartile_range(ordered)
    return SummaryStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        trimmed=trimmed_mean(ordered),
        median=_quantile(ordered, 0.5),
        q25=q25,
        q75=q75,
        minimum=ordered[0],
        maximum=ordered[-1],
    )


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - improved) / baseline
