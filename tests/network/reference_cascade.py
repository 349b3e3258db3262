"""The eager general cascade the resumable ``GeneralPlan`` replaced.

Kept verbatim as the reference oracle for ``test_lazy_cascade.py``:
:func:`general_schedule` is the old ``cascade._general_schedule`` (one
progressive fill per departure of the *whole* component, up front) and
:class:`EagerGeneralPlan` the old ``GeneralPlan`` replay over its
result; :func:`eager_plan` is the general branch of the old
``build_plan`` (link interning in first-appearance order).  A lazily
extended plan must reproduce every prefix of this schedule float for
float.  Not a second planner — nothing under ``src/`` imports it.

:func:`checked_build_plan` is the on-workload form of the scalar ==
vector property: patched over ``repro.network.fabric.build_plan`` it
solves every small non-uniform component a run plans in both shapes, to
the end, and asserts they agree (``.claude/skills/verify/SKILL.md`` has
the recipe for the end-to-end workloads).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

import repro.network.cascade as cascade
from repro.network.cascade import _TIE
from repro.network.vector_solver import build_csr, progressive_fill


def general_schedule(
    remaining: np.ndarray,
    routes: Sequence[np.ndarray],
    capacities: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, List[List[int]]]:
    """Iterative cascade: one progressive fill per departure round."""
    indices, indptr, flow_of_entry = build_csr(routes)
    count = len(routes)
    active = np.ones(count, dtype=bool)
    live_remaining = remaining.copy()
    bounds = [0.0]
    rate_rows = []
    departs = []
    elapsed = 0.0
    while active.any():
        rates = progressive_fill(
            indices, indptr, flow_of_entry, capacities, active, weights=weights
        )
        step = np.full(count, np.inf)
        step[active] = live_remaining[active] / rates[active]
        shortest = float(step.min())
        departing = active & (step <= shortest * (1.0 + _TIE))
        elapsed += shortest
        live_remaining -= rates * shortest
        np.clip(live_remaining, 0.0, None, out=live_remaining)
        live_remaining[departing] = 0.0
        rate_rows.append(rates)
        bounds.append(elapsed)
        departs.append(np.flatnonzero(departing).tolist())
        active &= ~departing
    return np.asarray(bounds), np.asarray(rate_rows), departs


class EagerGeneralPlan:
    """The whole schedule and its replay, as the eager plan held them."""

    def __init__(
        self,
        base: float,
        init_remaining: np.ndarray,
        routes: Sequence[np.ndarray],
        capacities: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        self.base = base
        self.init_remaining = init_remaining
        self.bounds, self.rates, self.departs = general_schedule(
            init_remaining, routes, capacities, weights
        )
        # _cum[k, pos]: bytes delivered to pos before segment k starts.
        cum = np.empty((self.rates.shape[0] + 1, self.rates.shape[1]))
        cum[0] = 0.0
        np.cumsum(
            self.rates * np.diff(self.bounds)[:, None], axis=0, out=cum[1:]
        )
        self._cum = cum

    def _segment(self, offset: float) -> int:
        k = int(np.searchsorted(self.bounds, offset, side="right")) - 1
        return min(max(k, 0), len(self.departs) - 1)

    def depart_times(self) -> List[float]:
        return (self.base + self.bounds[1:]).tolist()

    def remaining_at(self, pos: int, now: float) -> float:
        offset = now - self.base
        k = self._segment(offset)
        remaining = (
            self.init_remaining[pos]
            - self._cum[k, pos]
            - self.rates[k, pos] * (offset - self.bounds[k])
        )
        return float(remaining) if remaining > 0.0 else 0.0

    def rate_at(self, pos: int, now: float) -> float:
        return float(self.rates[self._segment(now - self.base), pos])


def eager_plan(
    flow_ids: Sequence[int],
    remaining: Sequence[float],
    shared: Sequence[Tuple[str, ...]],
    caps: Sequence[float],
    capacities: Mapping[str, float],
    base: float,
    weights: Optional[Mapping[int, float]] = None,
) -> EagerGeneralPlan:
    """``build_plan``'s general branch, solved whole (same arguments;
    a private cap is the virtual link ``cap:<fid>`` it has always been)."""
    capacities = dict(capacities)
    interned: Dict[Hashable, int] = {}
    link_caps: List[float] = []
    index_routes: List[np.ndarray] = []
    for fid, route, cap in zip(flow_ids, shared, caps):
        if cap != np.inf:
            route = route + (f"cap:{fid}",)
            capacities[route[-1]] = cap
        row = np.empty(len(route), dtype=np.intp)
        for position, name in enumerate(route):
            index = interned.get(name)
            if index is None:
                index = len(interned)
                interned[name] = index
                link_caps.append(capacities[name])
            row[position] = index
        index_routes.append(row)
    weight_array: Optional[np.ndarray] = None
    if weights:
        weight_array = np.asarray(
            [float(weights.get(fid, 1.0)) for fid in flow_ids]
        )
    return EagerGeneralPlan(
        base,
        np.asarray(remaining, dtype=float),
        index_routes,
        np.asarray(link_caps),
        weight_array,
    )


def _solved_whole(limit: int, args, kwargs) -> cascade.ResumablePlan:
    """The plan ``build_plan`` makes with the crossover at ``limit``,
    extended until complete."""
    saved = cascade.SCALAR_MAX_FLOWS
    cascade.SCALAR_MAX_FLOWS = limit
    try:
        plan = cascade.build_plan(*args, **kwargs)
    finally:
        cascade.SCALAR_MAX_FLOWS = saved
    while not plan.complete:
        plan.extend()
    return plan


def checked_build_plan(*args, **kwargs) -> cascade.CascadePlan:
    """``build_plan``, asserting on the way that the component's scalar
    and vector shapes are the same schedule and the same replays."""
    plan = cascade.build_plan(*args, **kwargs)
    if plan.shape == "uniform":
        vector = _solved_whole(0, args, kwargs)
        scalar = _solved_whole(len(plan.flow_ids), args, kwargs)
        assert type(vector) is cascade.UniformPlan
        assert type(scalar) is cascade.ScalarUniformPlan
        assert scalar.flow_ids == vector.flow_ids == plan.flow_ids
        assert scalar.bounds == vector.bounds == plan.bounds
        assert scalar.departs == vector.departs == plan.departs
        assert scalar.seg_rates == vector.seg_rates.tolist()
        assert scalar._cum == vector._cum.tolist()
        last = scalar.bounds[-1]
        for offset in (0.0, last / 3, scalar.bounds[1], last):
            now = plan.base + offset
            assert scalar.state_at(now) == vector.state_at(now)
    elif len(plan.flow_ids) <= 64:
        vector = _solved_whole(0, args, kwargs)
        scalar = _solved_whole(len(plan.flow_ids), args, kwargs)
        assert type(vector) is cascade.GeneralPlan
        assert type(scalar) is cascade.ScalarPlan
        assert scalar.bounds == vector.bounds
        assert scalar.departs == vector.departs
        assert scalar.rates == [row.tolist() for row in vector.rates]
        assert scalar._cum == [row.tolist() for row in vector._cum]
        last = scalar.bounds[-1]
        for offset in (0.0, last / 3, scalar.bounds[1], last):
            now = plan.base + offset
            assert scalar.state_at(now) == vector.state_at(now)
        solved = len(plan.departs)
        assert plan.bounds == scalar.bounds[: solved + 1]
        assert plan.departs == scalar.departs[:solved]
    return plan
