"""The numpy cascade shape: :class:`GeneralPlan`.

Kept apart from :mod:`repro.network.cascade` so that numpy is imported
by the first component that needs it — a non-uniform one of more than
:data:`~repro.network.cascade.SCALAR_MAX_FLOWS` flows — and never by a
process whose plans all stay scalar.  :func:`~repro.network.
cascade.build_plan` remains the only place that chooses a shape; this
module only supplies the one it cannot build without numpy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.cascade import _TIE, ResumablePlan
from repro.network.vector_solver import (
    LevelTrace,
    build_csr,
    fill_levels,
    resume_levels,
    saturation_floor,
)


class GeneralPlan(ResumablePlan):
    """The vector shape: one
    :func:`~repro.network.vector_solver.progressive_fill` per segment
    over the component's CSR arrays, with the CSR row starts and
    saturation floor worked out once per plan.  Unweighted, each fill
    after the first resumes the last one where the flows that just
    departed froze (:func:`~repro.network.vector_solver.resume_levels`
    over the plan's :class:`~repro.network.vector_solver.LevelTrace`);
    weighted, each one is a :func:`~repro.network.vector_solver.
    fill_levels` from level 0."""

    __slots__ = (
        "_indices",
        "_starts",
        "_flow_of_entry",
        "_capacities",
        "_floor",
        "_weights",
        "_trace",
        "_departed",
        "_active",
        "_live",
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
        self._indices, indptr, self._flow_of_entry = build_csr(routes)
        self._starts = indptr[:-1]
        self._capacities = np.asarray(capacities)
        self._floor = saturation_floor(self._capacities)
        self._weights = None if weights is None else np.asarray(weights)
        self._trace = LevelTrace() if weights is None else None
        # Positions that departed at the end of the last segment solved.
        self._departed: Optional[np.ndarray] = None
        self._active = np.ones(len(flow_ids), dtype=bool)
        # How many members are still in flight.
        self._live = len(flow_ids)
        self._live_remaining = init_remaining.copy()
        self._begin()

    def _advance(self) -> None:
        active = self._active
        live_remaining = self._live_remaining
        if self._trace is None:
            rates = fill_levels(
                self._indices,
                self._starts,
                self._flow_of_entry,
                self._capacities,
                self._floor,
                active,
                self._weights,
            )
        else:
            rates = resume_levels(
                self._indices,
                self._starts,
                self._flow_of_entry,
                self._capacities,
                self._floor,
                active,
                self._trace,
                self._departed,
            )
        live = active.nonzero()[0]
        steps = live_remaining[live] / rates[live]
        shortest = float(np.minimum.reduce(steps))
        departing = live[steps <= shortest * (1.0 + _TIE)]
        self._elapsed += shortest
        live_remaining -= rates * shortest
        np.maximum(live_remaining, 0.0, out=live_remaining)
        live_remaining[departing] = 0.0
        self._cum.append(
            self._cum[-1] + rates * (self._elapsed - self.bounds[-1])
        )
        self.rates.append(rates)
        self.bounds.append(self._elapsed)
        self.departs.append(departing.tolist())
        self._departed = departing
        active[departing] = False
        self._live -= len(departing)
        self.complete = not self._live

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
