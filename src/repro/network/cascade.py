"""Cascade plans: precomputed departure schedules for the vector drive.

An event-per-departure fabric (the global reference drive) re-solves
rates every time a flow drains.  But between external perturbations
(arrivals, cancels, capacity changes) a component's future is fully
determined: max-min fair sharing is a piecewise-linear fluid system, so
the sequence of departures can be computed ahead of the clock.  A
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
  stores only 1-D per-segment arrays — no per-flow rate matrix at all,
  and the whole schedule is solved at construction;
* :class:`GeneralPlan` — one :func:`~repro.network.vector_solver.
  progressive_fill` per departure round on the component's CSR arrays.
  A fill per *future* departure is wasted when the next perturbation
  kills the plan after a handful of them, so the plan is **resumable**:
  it keeps the solver state and solves segments only as far as its
  :attr:`~CascadePlan.horizon`, which the fabric pushes out
  (:meth:`GeneralPlan.extend`) each time the clock reaches it.

Replay is exact: each plan keeps the cumulative bytes delivered at
every segment boundary, so ``remaining_at(pos, t)`` is one bisection
plus a multiply-add, paid only when something actually reads or
perturbs the flow; :meth:`~CascadePlan.state_at` does it for every
member at once when a plan dies.
"""

from __future__ import annotations

from bisect import bisect_right
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

    ``bounds``/``departs`` hold the segments solved so far, which is
    all of them once ``complete``; the first :attr:`horizon` may have
    departure timers armed.  A plan that is not complete has an
    ``extend()`` that solves further (:meth:`GeneralPlan.extend`).
    """

    __slots__ = (
        "flow_ids",
        "pos_of",
        "base",
        "init_remaining",
        "bounds",
        "departs",
        "complete",
        "timers",
        "alive",
    )

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        bounds: List[float],
        departs: List[List[int]],
    ) -> None:
        self.flow_ids = flow_ids
        self.pos_of = {fid: pos for pos, fid in enumerate(flow_ids)}
        self.base = base
        self.init_remaining = init_remaining
        self.bounds = bounds
        self.departs = departs
        self.complete = True
        self.timers: list = []
        self.alive = True

    @property
    def horizon(self) -> int:
        """How many leading segments are ready for departure timers:
        all of a complete plan, all but the last (the reserve, see
        :class:`GeneralPlan`) of one still being solved."""
        solved = len(self.departs)
        return solved if self.complete else solved - 1

    def _segment(self, offset: float) -> int:
        k = bisect_right(self.bounds, offset) - 1
        last = len(self.departs) - 1
        if k < 0:
            return 0
        if k > last:
            return last
        return k

    def depart_times(self, start: int = 0) -> List[float]:
        """Absolute simulated time of the departure boundaries of
        segments ``start`` up to the horizon."""
        base = self.base
        return [
            base + offset
            for offset in self.bounds[start + 1 : self.horizon + 1]
        ]


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
        super().__init__(
            flow_ids, base, init_remaining, bounds.tolist(), departs
        )
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

    def state_at(self, now: float) -> Tuple[List[float], List[float]]:
        """``remaining_at`` and ``rate_at`` of every position at once."""
        k, delivered = self._delivered(now - self.base)
        remaining = self.init_remaining - delivered
        draining = remaining > 0.0
        return (
            np.where(draining, remaining, 0.0).tolist(),
            np.where(draining, self.seg_rates[k], 0.0).tolist(),
        )

    def initial_rate(self, pos: int) -> float:
        return float(self.seg_rates[0])


class GeneralPlan(CascadePlan):
    """Resumable iterative cascade: one progressive fill per segment,
    solved only as far ahead as the clock has come.

    The plan keeps the solver state (CSR arrays, active mask, live
    remaining bytes, elapsed offset) between calls, so continuing is the
    same arithmetic as solving the whole schedule in one go.  It always
    stays one segment ahead of :attr:`horizon`: a replay landing exactly
    on the last armed boundary — before that boundary's timer has fired
    in the same batch — reads the segment *after* it, as it would from a
    fully solved schedule.  Each :meth:`extend` solves twice as many
    segments as the one before, so a plan that lives for ``d``
    departures costs at most ``2 (d + 1)`` fills and one that runs out
    costs one per segment.
    """

    __slots__ = (
        "rates",
        "_cum",
        "_csr",
        "_capacities",
        "_weights",
        "_active",
        "_live_remaining",
        "_elapsed",
        "_batch",
    )

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        routes: Sequence[np.ndarray],
        capacities: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(flow_ids, base, init_remaining, [0.0], [])
        # rates[k][pos]: rate of pos during segment k;
        # _cum[k][pos]: bytes delivered to pos before segment k starts.
        self.rates: List[np.ndarray] = []
        self._cum: List[np.ndarray] = [np.zeros(len(flow_ids))]
        self._csr = build_csr(routes)
        self._capacities = capacities
        self._weights = weights
        self._active = np.ones(len(flow_ids), dtype=bool)
        self._live_remaining = init_remaining.copy()
        self._elapsed = 0.0
        self.complete = False
        # One segment to arm and one in reserve; extend() doubles it.
        self._batch = 1
        self._solve(2)

    def extend(self) -> int:
        """Solve the next batch of segments, twice the last one, and a
        new reserve; returns how many segments that was."""
        solved = len(self.departs)
        self._batch *= 2
        self._solve(self.horizon + self._batch + 1)
        return len(self.departs) - solved

    def _solve(self, segments: int) -> None:
        """Continue the cascade until ``segments`` are solved or every
        member has departed."""
        indices, indptr, flow_of_entry = self._csr
        active = self._active
        live_remaining = self._live_remaining
        count = len(active)
        bounds = self.bounds
        while len(self.departs) < segments and not self.complete:
            rates = progressive_fill(
                indices,
                indptr,
                flow_of_entry,
                self._capacities,
                active,
                weights=self._weights,
            )
            step = np.full(count, np.inf)
            step[active] = live_remaining[active] / rates[active]
            shortest = float(step.min())
            departing = active & (step <= shortest * (1.0 + _TIE))
            self._elapsed += shortest
            live_remaining -= rates * shortest
            np.clip(live_remaining, 0.0, None, out=live_remaining)
            live_remaining[departing] = 0.0
            self._cum.append(
                self._cum[-1] + rates * (self._elapsed - bounds[-1])
            )
            self.rates.append(rates)
            bounds.append(self._elapsed)
            self.departs.append(np.flatnonzero(departing).tolist())
            active &= ~departing
            self.complete = not active.any()

    def remaining_at(self, pos: int, now: float) -> float:
        offset = now - self.base
        k = self._segment(offset)
        remaining = (
            self.init_remaining[pos]
            - self._cum[k][pos]
            - self.rates[k][pos] * (offset - self.bounds[k])
        )
        return float(remaining) if remaining > 0.0 else 0.0

    def rate_at(self, pos: int, now: float) -> float:
        return float(self.rates[self._segment(now - self.base)][pos])

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

    def initial_rate(self, pos: int) -> float:
        return float(self.rates[0][pos])


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


def build_plan(
    flow_ids: Sequence[int],
    remaining: Sequence[float],
    routes: Mapping[int, Tuple[str, ...]],
    capacities: Mapping[str, float],
    base: float,
    weights: Optional[Mapping[int, float]] = None,
) -> CascadePlan:
    """Plan one component's departure schedule.

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
    return GeneralPlan(
        list(flow_ids),
        base,
        init_remaining,
        index_routes,
        np.asarray(link_caps),
        weight_array,
    )
