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

Three shapes, chosen by :func:`build_plan` and by nothing else:

* :class:`UniformPlan` — when every flow in the component has the same
  route signature (the dominant shuffle pattern: a burst of fetches
  between one host pair), the whole cascade collapses to a running sum
  over the size-sorted remaining bytes: with ``k`` flows left the
  shared rate is ``min(C*/k, cap)`` where ``C* = min_j capacity_j /
  multiplicity_j`` over the shared route, so each departure gap costs
  ``(e_i - e_{i-1}) / rate(k)`` seconds.  Because every alive flow
  always runs at the same rate, the plan stores only per-segment lists
  — no per-flow rate matrix at all — and the whole schedule is solved
  at construction, in plain floats at every size;
* :class:`~repro.network.cascade_vector.GeneralPlan` — one
  :func:`~repro.network.vector_solver.progressive_fill` per departure
  round on the component's CSR arrays, in
  :mod:`repro.network.cascade_vector`, which — with numpy — is
  imported by the first component that needs it.
  A fill per *future* departure is wasted when the next perturbation
  kills the plan after a handful of them, so the plan is **resumable**
  (:class:`ResumablePlan`): it keeps the solver state and solves
  segments only as far as its :attr:`~CascadePlan.horizon`, which the
  fabric pushes out (:meth:`ResumablePlan.extend`) each time the clock
  reaches it;
* :class:`ScalarPlan` — the same resumable cascade, operation for
  operation, in plain Python floats and lists, for components of at
  most :data:`SCALAR_MAX_FLOWS` flows.  A general plan costs ~100 numpy
  dispatches however few flows it has, and a job stream's or a chaos
  campaign's components have four to about twenty.

``ScalarPlan`` agrees with ``GeneralPlan`` with ``==``, so which one
ran is not observable in simulated results.

Replay is exact: each plan keeps the cumulative bytes delivered at
every segment boundary, so ``remaining_at(pos, t)`` is one bisection
plus a multiply-add, paid only when something actually reads or
perturbs the flow; :meth:`~CascadePlan.state_at` does it for every
member at once when a plan dies.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.fair_share import _EPSILON

# Departures within this relative window collapse into one segment (and
# one timer); keeps float noise from splitting simultaneous drains.
_TIE = 1e-12
_INF = float("inf")

# The largest non-uniform component planned in scalar Python (a uniform
# one always is: its closed form has no fill levels).  Both shapes cost one
# unit of work per fill level — ~25 numpy dispatches, or one pass over
# the component's live flows and carried links — so they cross where
# that pass costs what the dispatches do: with the two-tenant weights
# at 100-128 flows, with unit weights near 28 on a synthetic
# shuffle and on the benchmark's own components (the vector shape
# resumes those fills past the levels a departure cannot change).  Fetch
# shuffle streams (at most 16 flows) and chaos campaigns (at most 22)
# build no bigger component, so those processes never load numpy.
# benchmarks/bench_engine_micro.py ("small component re-plan") fails
# when the scalar shape is the slower one here or the vector shape the
# slower one at four times this.
SCALAR_MAX_FLOWS = 24


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
    departure timers armed (``timers``, released when the plan dies or
    its last segment fires).  ``extend()`` pushes the horizon out by
    twice its last push and returns how many segments that newly
    solved: a :class:`ResumablePlan` solves further, a
    :class:`UniformPlan` — solved whole — only arms further.  ``shape``
    names the subclass for the fabric's ``plans_<shape>`` counters.
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
        init_remaining: Sequence[float],
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
    """The closed form for identical-route components, solved whole at
    construction in plain floats and lists, whatever the size, and
    armed in :class:`ResumablePlan`'s doubling batches (horizon 1, 3,
    7, ...): most plans die at the next arrival, long before their
    last departure.

    All alive members share one rate per segment, so replay state is
    three 1-D lists: segment bounds, segment rates, and the common
    cumulative bytes delivered at each boundary.  Members sit in
    departure (size) order, so every departure batch is a contiguous
    position range.  A stable sort, one running ``+=`` per cumulative
    sum and the tie window: the operations of the array form this
    replaced, in its order, so the two agree with ``==``
    (``tests/network/reference_cascade.py`` keeps the array form).
    """

    __slots__ = ("seg_rates", "_cum", "horizon", "_batch")
    shape = "uniform"

    def __init__(
        self,
        flow_ids: Sequence[int],
        base: float,
        remaining: List[float],
        c_star: float,
        cap: float,
    ) -> None:
        count = len(flow_ids)
        order = sorted(range(count), key=remaining.__getitem__)
        sizes = [remaining[index] for index in order]
        # With k flows left the shared rate is min(C*/k, cap); stage i
        # ends once its size gap has drained at that rate.
        stage_rates = []
        ends = []
        end = previous = 0.0
        for index, size in enumerate(sizes):
            rate = c_star / (count - index)
            if cap < rate:
                rate = cap
            end += (size - previous) / rate
            previous = size
            stage_rates.append(rate)
            ends.append(end)
        # Stages whose departure instants coincide (within the tie
        # window) share one segment.
        bounds = [0.0]
        seg_rates = []
        departs = []
        cum = [0.0]
        delivered = 0.0
        start = 0
        for stop, end in enumerate(ends):
            if stop + 1 < count:
                later = ends[stop + 1]
                if not later - end > _TIE * (later if later > 1.0 else 1.0):
                    continue
            delivered += stage_rates[start] * (end - bounds[-1])
            cum.append(delivered)
            bounds.append(end)
            seg_rates.append(stage_rates[start])
            departs.append(list(range(start, stop + 1)))
            start = stop + 1
        super().__init__(
            [flow_ids[index] for index in order], base, sizes, bounds, departs
        )
        self.seg_rates = seg_rates
        # _cum[k]: bytes every still-alive member has delivered by the
        # time segment k starts.
        self._cum = cum
        self.horizon = 1
        self._batch = 1

    def extend(self) -> int:
        """Arm-ready twice as many segments as the last batch; the
        schedule is solved already, so none is newly solved."""
        self._batch *= 2
        self.horizon = min(self.horizon + self._batch, len(self.departs))
        return 0

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

    def state_at(self, now: float) -> Tuple[List[float], List[float]]:
        """``remaining_at`` and ``rate_at`` of every position at once."""
        k, delivered = self._delivered(now - self.base)
        rate = self.seg_rates[k]
        remaining = [0.0] * len(self.init_remaining)
        rates = list(remaining)
        for pos, start in enumerate(self.init_remaining):
            left = start - delivered
            if left > 0.0:
                remaining[pos] = left
                rates[pos] = rate
        return remaining, rates


class ResumablePlan(CascadePlan):
    """A cascade solved a doubling batch of departures at a time, as
    the clock reaches them (base of the two non-uniform shapes).

    The plan keeps its solver state between calls, so continuing is the
    same arithmetic as solving the whole schedule in one go.  It always
    stays one segment ahead of :attr:`horizon`: a replay landing exactly
    on the last armed boundary — before that boundary's timer has fired
    in the same batch — reads the segment *after* it, as it would from a
    fully solved schedule.  Each :meth:`extend` solves twice as many
    segments as the one before, so a plan that lives for ``d``
    departures costs at most ``2 (d + 1)`` fills and one that runs out
    costs one per segment.

    ``rates[k][pos]`` is the rate of ``pos`` during segment ``k`` and
    ``_cum[k][pos]`` the bytes delivered to it before segment ``k``
    starts; a subclass supplies the rows (numpy arrays or lists) and
    :meth:`_advance`, which solves one more segment.
    """

    __slots__ = ("rates", "_cum", "_elapsed", "_batch")

    @property
    def horizon(self) -> int:
        """How many leading segments are ready for departure timers:
        all of a complete plan, all but the last (the reserve) of one
        still being solved."""
        solved = len(self.departs)
        return solved if self.complete else solved - 1

    def _begin(self) -> None:
        """Solve the first two segments: one to arm and one in reserve
        (:meth:`extend` doubles the batch)."""
        self._elapsed = 0.0
        self.complete = False
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
        while len(self.departs) < segments and not self.complete:
            self._advance()

    def _advance(self) -> None:
        raise NotImplementedError

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

    def initial_rate(self, pos: int) -> float:
        return float(self.rates[0][pos])


class ScalarPlan(ResumablePlan):
    """The scalar shape: :class:`GeneralPlan`'s cascade in plain floats
    and lists, for components too small to repay ~100 numpy dispatches.

    Every IEEE operation of ``progressive_fill`` and of the departure
    step happens here in the same order on the same operands, so the
    two shapes produce ``==`` bounds, departs, rates and cumulative
    bytes (``tests/network/test_lazy_cascade.py``).  What that rules
    out: a weight sum is accumulated with ``+=`` in (position, route)
    order as ``np.bincount(weights=)`` does — never ``sum()``, which is
    compensated from Python 3.12 — and the weights a level freezes
    leave a link as one per-link sum, not one flow at a time.  One fill
    serves both of the solver's: multiplying by a weight of exactly 1.0
    and counting in floats are exact, so unit weights reproduce the
    unweighted fill bit for bit.
    """

    __slots__ = (
        "_routes",
        "_capacities",
        "_floor",
        "_weights",
        "_active",
        "_live_remaining",
    )
    shape = "scalar"

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: List[float],
        routes: List[List[int]],
        capacities: List[float],
        weights: Optional[List[float]] = None,
    ) -> None:
        super().__init__(flow_ids, base, init_remaining, [0.0], [])
        count = len(flow_ids)
        self.rates: List[List[float]] = []
        self._cum: List[List[float]] = [[0.0] * count]
        self._routes = routes
        self._capacities = capacities
        self._floor = [
            _EPSILON * (capacity if capacity > 1.0 else 1.0)
            for capacity in capacities
        ]
        self._weights = weights if weights is not None else [1.0] * count
        # Positions still in flight, ascending.
        self._active = list(range(count))
        self._live_remaining = list(init_remaining)
        self._begin()

    def _fill(self) -> List[float]:
        """``progressive_fill`` over the active positions."""
        routes = self._routes
        weights = self._weights
        floor = self._floor
        residual = list(self._capacities)
        carriers = [0] * len(residual)
        crossing = [0.0] * len(residual)
        live = self._active
        for pos in live:
            weight = weights[pos]
            for link in routes[pos]:
                carriers[link] += 1
                crossing[link] += weight
        carried = [link for link, count in enumerate(carriers) if count]
        rates = [0.0] * len(routes)
        while True:
            bottleneck = min(
                [residual[link] / crossing[link] for link in carried]
            )
            for pos in live:
                rates[pos] += bottleneck * weights[pos]
            # A saturated link leaves ``carried`` below (every flow on
            # it freezes), so its residual is never read again and the
            # solver's clamp at zero has nothing to protect here.
            saturated = set()
            for link in carried:
                left = residual[link] - bottleneck * crossing[link]
                residual[link] = left
                if left <= floor[link]:
                    saturated.add(link)
            # A flow freezes when any link on its route saturates; if
            # rounding saturated none, all do (see the vector solver).
            staying = []
            dropped: Dict[int, float] = {}
            for pos in live:
                route = routes[pos]
                if saturated.isdisjoint(route):
                    staying.append(pos)
                    continue
                weight = weights[pos]
                for link in route:
                    carriers[link] -= 1
                    dropped[link] = dropped.get(link, 0.0) + weight
            if not staying or len(staying) == len(live):
                return rates
            for link, weight in dropped.items():
                left = crossing[link] - weight
                crossing[link] = (
                    left if carriers[link] > 0 and left > 0.0 else 0.0
                )
            live = staying
            carried = [link for link in carried if carriers[link]]

    def _advance(self) -> None:
        active = self._active
        live_remaining = self._live_remaining
        rates = self._fill()
        steps = [live_remaining[pos] / rates[pos] for pos in active]
        shortest = min(steps)
        limit = shortest * (1.0 + _TIE)
        self._elapsed += shortest
        departing = []
        staying = []
        for pos, step in zip(active, steps):
            if step <= limit:
                departing.append(pos)
                live_remaining[pos] = 0.0
            else:
                staying.append(pos)
                left = live_remaining[pos] - rates[pos] * shortest
                live_remaining[pos] = left if left > 0.0 else 0.0
        span = self._elapsed - self.bounds[-1]
        self._cum.append(
            [done + rate * span for done, rate in zip(self._cum[-1], rates)]
        )
        self.rates.append(rates)
        self.bounds.append(self._elapsed)
        self.departs.append(departing)
        self._active = staying
        self.complete = not staying

    def state_at(self, now: float) -> Tuple[List[float], List[float]]:
        """``remaining_at`` and ``rate_at`` of every position at once."""
        offset = now - self.base
        k = self._segment(offset)
        rates = self.rates[k]
        span = offset - self.bounds[k]
        remaining = []
        for start, done, rate in zip(self.init_remaining, self._cum[k], rates):
            left = start - done - rate * span
            remaining.append(left if left > 0.0 else 0.0)
        return remaining, list(rates)


def build_plan(
    flow_ids: Sequence[int],
    remaining: List[float],
    shared: List[Tuple[str, ...]],
    caps: List[float],
    capacities: Mapping[str, float],
    base: float,
    weights: Optional[Mapping[int, float]] = None,
) -> CascadePlan:
    """Plan one component's departure schedule — the only place that
    chooses a plan shape.

    ``flow_ids`` must be sorted (determinism); ``shared`` / ``caps`` /
    ``capacities`` are the component index's
    :meth:`~repro.network.incremental.IncrementalFairShare.subproblem`
    for exactly these flows — per flow its shared link names and its
    private WAN cap (``inf``: none), and the shared links' capacities.
    The returned plan's ``flow_ids`` may be a reordering of the input.
    ``weights`` (flow id -> weighted-fair-share weight, absent flows
    weigh 1.0) selects the weighted fill; ``None`` keeps the exact
    unweighted path.
    """
    count = len(flow_ids)
    shared0 = shared[0]
    cap0 = caps[0]
    uniform = (
        bool(shared0)
        and shared.count(shared0) == count
        and caps.count(cap0) == count
    )
    weight_list: Optional[List[float]] = None
    if weights:
        weight_list = [float(weights.get(fid, 1.0)) for fid in flow_ids]
        if min(weight_list) <= 0:
            raise ValueError("flow weights must be > 0")
        # The closed form assumes every alive member runs at the same
        # rate, which holds only when all weights are equal (weighted
        # max-min with equal weights reduces to the unweighted
        # allocation — the shared fair level just rescales).
        uniform = uniform and weight_list.count(weight_list[0]) == count
    if uniform:
        multiplicity: Dict[str, int] = {}
        for name in shared0:
            multiplicity[name] = multiplicity.get(name, 0) + 1
        c_star = min(
            capacities[name] / times for name, times in multiplicity.items()
        )
        return UniformPlan(flow_ids, base, remaining, c_star, cap0)
    # Links become dense indices in first-appearance order; a private
    # cap is one more link that only its own flow crosses.
    interned: Dict[str, int] = {}
    link_caps: List[float] = []
    routes: List[List[int]] = []
    for names, cap in zip(shared, caps):
        row = []
        for name in names:
            index = interned.get(name)
            if index is None:
                index = interned[name] = len(link_caps)
                link_caps.append(capacities[name])
            row.append(index)
        if cap != _INF:
            row.append(len(link_caps))
            link_caps.append(cap)
        routes.append(row)
    if count <= SCALAR_MAX_FLOWS:
        return ScalarPlan(
            list(flow_ids), base, remaining, routes, link_caps, weight_list
        )
    vector = _vector or _load_vector()
    return vector.GeneralPlan(
        list(flow_ids), base, remaining, routes, link_caps, weight_list
    )


# :mod:`repro.network.cascade_vector`, imported by the first
# non-uniform component of more than SCALAR_MAX_FLOWS flows (or the
# first read of ``GeneralPlan`` from this module) and by nothing before:
# a process whose plans all stay scalar never loads numpy.
_vector = None


def _load_vector():
    global _vector
    from repro.network import cascade_vector

    _vector = cascade_vector
    return cascade_vector


def __getattr__(name: str):
    if name == "GeneralPlan":
        return (_vector or _load_vector()).GeneralPlan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
