"""Cascade plans: precomputed departure schedules for the vector drive.

An event-per-departure fabric (the global reference drive) re-solves
rates every time a flow drains.  But between external perturbations
(arrivals, cancels, capacity changes) a component's future is fully
determined: max-min fair sharing is a piecewise-linear fluid system, so
the entire sequence of departures can be computed up front.  A
:class:`CascadePlan` is that precomputation — the segment boundaries,
per-segment rates, and which flows drain at each boundary.  Departures
then fire as bare precomputed timers
(:meth:`~repro.simulation.kernel.Simulator.call_at`) with **zero**
re-solves; a perturbation invalidates the affected plans (lazily
cancelling their timers) and replays them up to *now* to recover each
member's exact remaining bytes before re-planning.

Two plan shapes:

* :class:`UniformPlan` — when every flow in the component has the same
  route signature (the dominant shuffle pattern: a burst of fetches
  between one host pair), the whole cascade collapses to a cumulative
  sum over the size-sorted remaining bytes: with ``k`` flows left the
  shared rate is ``min(C*/k, cap)`` where
  ``C* = min_j capacity_j / multiplicity_j`` over the shared route, so
  each departure gap costs ``(e_i - e_{i-1}) / rate(k)`` seconds.
  Because every alive flow always runs at the same rate, the plan
  stores only 1-D per-segment arrays — no per-flow rate matrix at all;
* :class:`GeneralPlan` — one :func:`~repro.network.vector_solver.
  progressive_fill` per departure round on the component's CSR arrays,
  with the full (segments x flows) rate matrix.

Replay is exact: each plan keeps the cumulative bytes delivered at
every segment boundary, so ``remaining_at(pos, t)`` is one
``searchsorted`` plus a fused multiply-add, paid only when something
actually reads or perturbs the flow.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.vector_solver import build_csr, progressive_fill

# Departures within this relative window collapse into one segment (and
# one timer); keeps float noise from splitting simultaneous drains.
_TIE = 1e-12


class CascadePlan:
    """One component's precomputed future (base class; see subclasses).

    ``bounds`` are time offsets from ``base`` (``bounds[0] == 0``);
    segment ``k`` spans ``bounds[k]`` to ``bounds[k+1]``, and the flows
    at positions ``departs[k]`` drain exactly at ``bounds[k+1]``.
    Positions index ``flow_ids`` — the plan's own member order, which
    need not match the caller's (``UniformPlan`` sorts members into
    departure order so each ``departs[k]`` is a contiguous range).
    """

    __slots__ = (
        "flow_ids",
        "pos_of",
        "base",
        "init_remaining",
        "bounds",
        "departs",
        "timers",
        "alive",
    )

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        bounds: np.ndarray,
        departs: List[List[int]],
    ) -> None:
        self.flow_ids = flow_ids
        self.pos_of = {fid: pos for pos, fid in enumerate(flow_ids)}
        self.base = base
        self.init_remaining = init_remaining
        self.bounds = bounds
        self.departs = departs
        self.timers: list = []
        self.alive = True

    def _segment(self, offset: float) -> int:
        k = int(np.searchsorted(self.bounds, offset, side="right")) - 1
        last = len(self.departs) - 1
        if k < 0:
            return 0
        if k > last:
            return last
        return k

    def depart_times(self) -> List[float]:
        """Absolute simulated time of each departure segment boundary."""
        return (self.base + self.bounds[1:]).tolist()


class UniformPlan(CascadePlan):
    """Closed-form cascade for identical-route components.

    All alive members share one rate per segment, so replay state is
    three 1-D arrays: segment bounds, segment rates, and the common
    cumulative bytes delivered at each boundary.
    """

    __slots__ = ("seg_rates", "_cum")

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        bounds: np.ndarray,
        seg_rates: np.ndarray,
        departs: List[List[int]],
    ) -> None:
        super().__init__(flow_ids, base, init_remaining, bounds, departs)
        self.seg_rates = seg_rates
        # _cum[k]: bytes every still-alive member has delivered by the
        # time segment k starts.
        cum = np.empty(len(bounds))
        cum[0] = 0.0
        np.cumsum(seg_rates * np.diff(bounds), out=cum[1:])
        self._cum = cum

    def _delivered(self, offset: float) -> Tuple[int, float]:
        k = self._segment(offset)
        return k, self._cum[k] + self.seg_rates[k] * (offset - self.bounds[k])

    def remaining_at(self, pos: int, now: float) -> float:
        _k, delivered = self._delivered(now - self.base)
        remaining = self.init_remaining[pos] - delivered
        return float(remaining) if remaining > 0.0 else 0.0

    def rate_at(self, pos: int, now: float) -> float:
        k, delivered = self._delivered(now - self.base)
        if self.init_remaining[pos] - delivered > 0.0:
            return float(self.seg_rates[k])
        return 0.0

    def initial_rate(self, pos: int) -> float:
        return float(self.seg_rates[0])


class GeneralPlan(CascadePlan):
    """Iterative cascade with the full (segments x flows) rate matrix."""

    __slots__ = ("rates", "_cum")

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        bounds: np.ndarray,
        rates: np.ndarray,
        departs: List[List[int]],
    ) -> None:
        super().__init__(flow_ids, base, init_remaining, bounds, departs)
        self.rates = rates
        # _cum[k, pos]: bytes delivered to pos before segment k starts.
        cum = np.empty((rates.shape[0] + 1, rates.shape[1]))
        cum[0] = 0.0
        np.cumsum(rates * np.diff(bounds)[:, None], axis=0, out=cum[1:])
        self._cum = cum

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

    def initial_rate(self, pos: int) -> float:
        return float(self.rates[0, pos])


# ----------------------------------------------------------------------
# Schedule builders
# ----------------------------------------------------------------------
def _uniform_schedule(
    sorted_remaining: np.ndarray, c_star: float, cap: float
) -> Tuple[np.ndarray, np.ndarray, List[List[int]]]:
    """Closed-form cascade over size-sorted remaining bytes."""
    count = len(sorted_remaining)
    gaps = np.diff(sorted_remaining, prepend=0.0)
    alive = count - np.arange(count)
    stage_rates = np.minimum(c_star / alive, cap)
    ends = np.cumsum(gaps / stage_rates)
    # Group stages whose departure instants coincide (within the tie
    # window) into single segments.
    breaks = np.flatnonzero(np.diff(ends) > _TIE * np.maximum(1.0, ends[1:]))
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [count - 1]))
    bounds = np.concatenate(([0.0], ends[stops]))
    departs = [
        list(range(start, stop + 1))
        for start, stop in zip(starts.tolist(), stops.tolist())
    ]
    return bounds, stage_rates[starts], departs


def _general_schedule(
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


def build_plan(
    flow_ids: Sequence[int],
    remaining: Sequence[float],
    routes: Mapping[int, Tuple[str, ...]],
    capacities: Mapping[str, float],
    base: float,
    weights: Optional[Mapping[int, float]] = None,
) -> CascadePlan:
    """Plan one component's full departure schedule.

    ``flow_ids`` must be sorted (determinism); ``routes``/``capacities``
    are the engine's solver inputs for exactly these flows — shared link
    names plus the per-flow virtual ``cap:<fid>`` WAN-cap links.  The
    returned plan's ``flow_ids`` may be a reordering of the input.
    ``weights`` (flow id -> weighted-fair-share weight, absent flows
    weigh 1.0) selects the weighted fill; ``None`` keeps the exact
    unweighted path.
    """
    init_remaining = np.asarray(remaining, dtype=float)

    def split(fid: int) -> Tuple[Tuple[str, ...], float]:
        route = routes[fid]
        if route and route[-1] == f"cap:{fid}":
            return route[:-1], capacities[route[-1]]
        return route, np.inf

    shared0, cap0 = split(flow_ids[0])
    uniform = bool(shared0) and all(
        split(fid) == (shared0, cap0) for fid in flow_ids[1:]
    )
    if uniform and weights:
        # The closed form assumes every alive member runs at the same
        # rate, which holds only when all weights are equal (weighted
        # max-min with equal weights reduces to the unweighted
        # allocation — the shared fair level just rescales).
        weight0 = weights.get(flow_ids[0], 1.0)
        uniform = all(
            weights.get(fid, 1.0) == weight0 for fid in flow_ids[1:]
        )
    if uniform:
        multiplicity: Dict[str, int] = {}
        for name in shared0:
            multiplicity[name] = multiplicity.get(name, 0) + 1
        c_star = min(
            capacities[name] / count for name, count in multiplicity.items()
        )
        # Reorder members into departure (size) order so every
        # departure batch is a contiguous position range.
        order = np.argsort(init_remaining, kind="stable")
        sorted_remaining = init_remaining[order]
        members = [flow_ids[index] for index in order.tolist()]
        bounds, seg_rates, departs = _uniform_schedule(
            sorted_remaining, c_star, cap0
        )
        return UniformPlan(
            members, base, sorted_remaining, bounds, seg_rates, departs
        )
    interned: Dict[Hashable, int] = {}
    link_caps: List[float] = []
    index_routes: List[np.ndarray] = []
    for fid in flow_ids:
        route = routes[fid]
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
        if np.any(weight_array <= 0):
            raise ValueError("flow weights must be > 0")
    bounds, rates, departs = _general_schedule(
        init_remaining, index_routes, np.asarray(link_caps), weight_array
    )
    return GeneralPlan(
        list(flow_ids), base, init_remaining, bounds, rates, departs
    )
