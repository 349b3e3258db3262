"""The numpy cascade shapes: :class:`UniformPlan` and :class:`GeneralPlan`.

Kept apart from :mod:`repro.network.cascade` so that numpy is imported
by the first component that needs an array shape — one of more than
:data:`~repro.network.cascade.SCALAR_MAX_FLOWS` flows — and never by a
process whose components all stay scalar.  :func:`~repro.network.
cascade.build_plan` remains the only place that chooses a shape; this
module only supplies the two it cannot build without numpy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.cascade import _TIE, ResumablePlan, _UniformReplay
from repro.network.vector_solver import build_csr, progressive_fill


class UniformPlan(_UniformReplay):
    """The closed form over arrays, solved whole at construction:
    because every alive flow always runs at the same rate, the plan
    stores only 1-D per-segment arrays — no per-flow rate matrix."""

    __slots__ = ()

    def __init__(
        self,
        flow_ids: Sequence[int],
        base: float,
        remaining: List[float],
        c_star: float,
        cap: float,
    ) -> None:
        init_remaining = np.asarray(remaining, dtype=float)
        order = np.argsort(init_remaining, kind="stable")
        sorted_remaining = init_remaining[order]
        bounds, seg_rates, departs = _uniform_schedule(
            sorted_remaining, c_star, cap
        )
        super().__init__(
            [flow_ids[index] for index in order.tolist()],
            base,
            sorted_remaining,
            bounds.tolist(),
            departs,
        )
        self.seg_rates = seg_rates
        # _cum[k]: bytes every still-alive member has delivered by the
        # time segment k starts.
        cum = np.empty(len(bounds))
        cum[0] = 0.0
        np.cumsum(seg_rates * np.diff(bounds), out=cum[1:])
        self._cum = cum

    def state_at(self, now: float) -> Tuple[List[float], List[float]]:
        """``remaining_at`` and ``rate_at`` of every position at once."""
        k, delivered = self._delivered(now - self.base)
        remaining = self.init_remaining - delivered
        draining = remaining > 0.0
        return (
            np.where(draining, remaining, 0.0).tolist(),
            np.where(draining, self.seg_rates[k], 0.0).tolist(),
        )


def _uniform_schedule(
    sorted_remaining: np.ndarray, c_star: float, cap: float
) -> Tuple[np.ndarray, np.ndarray, List[List[int]]]:
    """Closed-form cascade over size-sorted remaining bytes."""
    count = len(sorted_remaining)
    gaps = sorted_remaining.copy()
    gaps[1:] -= sorted_remaining[:-1]
    alive = count - np.arange(count)
    stage_rates = np.minimum(c_star / alive, cap)
    ends = np.cumsum(gaps / stage_rates)
    # Group stages whose departure instants coincide (within the tie
    # window) into single segments.
    later = ends[1:]
    breaks = np.flatnonzero(
        later - ends[:-1] > _TIE * np.maximum(1.0, later)
    ).tolist()
    starts = [0] + [index + 1 for index in breaks]
    stops = breaks + [count - 1]
    bounds = np.empty(len(stops) + 1)
    bounds[0] = 0.0
    bounds[1:] = ends[stops]
    departs = [
        list(range(start, stop + 1)) for start, stop in zip(starts, stops)
    ]
    return bounds, stage_rates[starts], departs


class GeneralPlan(ResumablePlan):
    """The vector shape: one
    :func:`~repro.network.vector_solver.progressive_fill` per segment
    over the component's CSR arrays."""

    __slots__ = (
        "_csr",
        "_capacities",
        "_weights",
        "_active",
        "_live_remaining",
    )
    shape = "vector"

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: Sequence[float],
        routes: Sequence[Sequence[int]],
        capacities: Sequence[float],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        init_remaining = np.asarray(init_remaining, dtype=float)
        super().__init__(flow_ids, base, init_remaining, [0.0], [])
        self.rates: List[np.ndarray] = []
        self._cum: List[np.ndarray] = [np.zeros(len(flow_ids))]
        self._csr = build_csr(routes)
        self._capacities = np.asarray(capacities)
        self._weights = None if weights is None else np.asarray(weights)
        self._active = np.ones(len(flow_ids), dtype=bool)
        self._live_remaining = init_remaining.copy()
        self._begin()

    def _advance(self) -> None:
        indices, indptr, flow_of_entry = self._csr
        active = self._active
        live_remaining = self._live_remaining
        rates = progressive_fill(
            indices,
            indptr,
            flow_of_entry,
            self._capacities,
            active,
            weights=self._weights,
        )
        step = np.full(len(active), np.inf)
        step[active] = live_remaining[active] / rates[active]
        shortest = float(step.min())
        departing = active & (step <= shortest * (1.0 + _TIE))
        self._elapsed += shortest
        live_remaining -= rates * shortest
        np.clip(live_remaining, 0.0, None, out=live_remaining)
        live_remaining[departing] = 0.0
        self._cum.append(
            self._cum[-1] + rates * (self._elapsed - self.bounds[-1])
        )
        self.rates.append(rates)
        self.bounds.append(self._elapsed)
        self.departs.append(np.flatnonzero(departing).tolist())
        active &= ~departing
        self.complete = not active.any()

    def state_at(self, now: float) -> Tuple[List[float], List[float]]:
        """``remaining_at`` and ``rate_at`` of every position at once."""
        offset = now - self.base
        k = self._segment(offset)
        rates = self.rates[k]
        remaining = (
            self.init_remaining
            - self._cum[k]
            - rates * (offset - self.bounds[k])
        )
        return (
            np.where(remaining > 0.0, remaining, 0.0).tolist(),
            rates.tolist(),
        )
