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
from repro.network.vector_solver import build_csr, progressive_fill


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
