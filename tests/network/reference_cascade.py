"""The eager general cascade the resumable ``GeneralPlan`` replaced,
and the array closed form the scalar ``UniformPlan`` replaced.

Kept verbatim as the reference oracles for ``test_lazy_cascade.py``:
:func:`general_schedule` is the old ``cascade._general_schedule`` (one
progressive fill per departure of the *whole* component, up front) and
:class:`EagerGeneralPlan` the old ``GeneralPlan`` replay over its
result; :func:`eager_plan` is the general branch of the old
``build_plan`` (link interning in first-appearance order).  A lazily
extended plan must reproduce every prefix of this schedule float for
float.  :func:`uniform_schedule` and :class:`ArrayUniformPlan` are the
numpy closed form ``build_plan`` used for uniform components above
``SCALAR_MAX_FLOWS`` flows; ``UniformPlan`` must equal it with ``==`` at
every size.  Not a second planner — nothing under ``src/`` imports it.

:func:`checked_build_plan` is the on-workload form of both properties:
patched over ``repro.network.fabric.build_plan`` it solves every uniform
component a run plans in the array closed form, every small non-uniform
one in both resumable shapes and every larger one in the vector shape
and the eager schedule, to the end, and asserts they agree; played over
one round of each end-to-end benchmark workload, it checks every plan a
real run builds.
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


def uniform_schedule(
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


class ArrayUniformPlan(cascade.UniformPlan):
    """The closed form over arrays, solved whole at construction (the
    old ``cascade_vector.UniformPlan``); replays are ``UniformPlan``'s
    over numpy rows, except :meth:`state_at`."""

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
        bounds, seg_rates, departs = uniform_schedule(
            sorted_remaining, c_star, cap
        )
        cascade.CascadePlan.__init__(
            self,
            [flow_ids[index] for index in order.tolist()],
            base,
            sorted_remaining,
            bounds.tolist(),
            departs,
        )
        self.seg_rates = seg_rates
        cum = np.empty(len(bounds))
        cum[0] = 0.0
        np.cumsum(seg_rates * np.diff(bounds), out=cum[1:])
        self._cum = cum
        # Armed whole at construction, as the array form was.
        self.horizon = len(departs)
        self._batch = 1

    def state_at(self, now: float) -> Tuple[List[float], List[float]]:
        k, delivered = self._delivered(now - self.base)
        remaining = self.init_remaining - delivered
        draining = remaining > 0.0
        return (
            np.where(draining, remaining, 0.0).tolist(),
            np.where(draining, self.seg_rates[k], 0.0).tolist(),
        )


def array_uniform_plan(
    flow_ids: Sequence[int],
    remaining: List[float],
    shared: Sequence[Tuple[str, ...]],
    caps: Sequence[float],
    capacities: Mapping[str, float],
    base: float,
    weights: Optional[Mapping[int, float]] = None,
) -> ArrayUniformPlan:
    """``build_plan``'s old uniform branch above ``SCALAR_MAX_FLOWS``
    (same arguments; the component must be uniform)."""
    multiplicity: Dict[str, int] = {}
    for name in shared[0]:
        multiplicity[name] = multiplicity.get(name, 0) + 1
    c_star = min(
        capacities[name] / times for name, times in multiplicity.items()
    )
    return ArrayUniformPlan(flow_ids, base, remaining, c_star, caps[0])


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
    and array shapes are the same schedule and the same replays."""
    plan = cascade.build_plan(*args, **kwargs)
    if plan.shape == "uniform":
        array = array_uniform_plan(*args, **kwargs)
        assert type(plan) is cascade.UniformPlan
        assert plan.flow_ids == array.flow_ids
        assert plan.init_remaining == array.init_remaining.tolist()
        assert plan.bounds == array.bounds
        assert plan.departs == array.departs
        assert plan.seg_rates == array.seg_rates.tolist()
        assert plan._cum == array._cum.tolist()
        last = plan.bounds[-1]
        for offset in (0.0, last / 3, plan.bounds[1], last):
            now = plan.base + offset
            assert plan.state_at(now) == array.state_at(now)
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
    else:
        # Too big for the scalar loop to be quick: every fill, resumed
        # or weighted, against the eager schedule's fresh one.
        vector = _solved_whole(0, args, kwargs)
        eager = eager_plan(*args, **kwargs)
        assert vector.bounds == eager.bounds.tolist()
        assert vector.departs == eager.departs
        assert [row.tobytes() for row in vector.rates] == [
            row.tobytes() for row in eager.rates
        ]
    return plan
