"""Vectorized max-min fair allocation over a CSR link-incidence matrix.

This is the numpy twin of the scalar progressive-filling solver in
:mod:`repro.network.fair_share`.  Flows and links are dense integer
indices; a flow's route is a slice of the ``indices`` array (CSR
layout: flow ``f`` traverses ``indices[indptr[f]:indptr[f+1]]``,
multiplicity preserved — a route may cross the same link twice and
then consumes capacity per traversal, exactly like the scalar solver).

Each filling round is pure array work: the per-link *crossing count*
is a ``bincount`` over the active flows' route entries, the bottleneck
share is a masked minimum of ``residual / crossing``, saturation is a
compare, and the flows frozen by a saturated link fall out of a
``logical_or.reduceat`` over the route slices.  The scalar solver
stays the property-tested oracle: :func:`max_min_fair_rates_numpy`
must agree with it to 1e-9 relative on arbitrary topologies (see
``tests/network/test_vector_solver.py``).

:func:`progressive_fill` is also the kernel of the fabric's vector
drive: a cascade plan plays the fluid model forward through successive
departures, one fill per departure round, and the event loop then
fires precomputed completion timers instead of re-solving per
departure (see :mod:`repro.network.cascade`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# One saturation tolerance for the scalar solver, this one and
# cascade.ScalarPlan, which must agree float for float.
from repro.network.fair_share import _EPSILON


def progressive_fill(
    indices: np.ndarray,
    indptr: np.ndarray,
    flow_of_entry: np.ndarray,
    capacities: np.ndarray,
    active: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Max-min rates for the ``active`` flows of one constraint system.

    Args:
        indices: concatenated link ids per flow (CSR data, multiplicity
            preserved).  Every flow must have a non-empty route.
        indptr: CSR offsets, ``len == num_flows + 1``.
        flow_of_entry: flow id per position of ``indices`` (i.e.
            ``np.repeat(arange(F), np.diff(indptr))``, precomputed by
            the caller since it is reusable across calls).
        capacities: per-link capacity array (bytes/second, > 0 for
            every link referenced by an active flow).
        active: boolean mask of flows to solve; inactive flows get rate
            0 and consume nothing.
        weights: optional per-flow weight array (> 0) for *weighted*
            max-min fairness: a flow's rate is its weight times a
            shared fair level.  ``None`` keeps the exact unweighted
            code path (bit-identical for weight-1 callers).

    Returns:
        rates array (num_flows,), zero for inactive flows.
    """
    return fill_levels(
        indices,
        indptr[:-1],
        flow_of_entry,
        capacities,
        saturation_floor(capacities),
        active,
        weights,
    )


def saturation_floor(capacities: np.ndarray) -> np.ndarray:
    """Per link, the residual at or below which it counts as saturated."""
    return _EPSILON * np.maximum(1.0, capacities)


def fill_levels(
    indices: np.ndarray,
    starts: np.ndarray,
    flow_of_entry: np.ndarray,
    capacities: np.ndarray,
    floor: np.ndarray,
    active: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`progressive_fill` with the system's constants supplied by
    the caller, who fills the same system many times: the CSR row
    ``starts`` (``indptr[:-1]``) and the :func:`saturation_floor` of
    ``capacities``.

    Unweighted, every filling flow holds the same rate — the sum of the
    bottleneck shares so far — so the loop keeps that one running level
    and stamps it on the flows each level freezes: the same float
    additions, in the same order, as adding every share to every filling
    flow.
    """
    if weights is not None:
        return _fill_levels_weighted(
            indices, starts, flow_of_entry, capacities, floor, active, weights
        )
    return _levels(indices, starts, flow_of_entry, capacities, floor, active, None)


class LevelTrace:
    """What one unweighted fill leaves for the next fill of the same
    system (:func:`resume_levels`): per level the residual and crossing
    arrays it started from (the loop makes new ones each level, so these
    are kept, not copied), the share it took and the level sum it
    reached; and the rates it stamped.  Plain arrays and lists, so
    whatever holds one holds no reference cycle."""

    __slots__ = ("residuals", "crossings", "shares", "sums", "rates")

    def __init__(self) -> None:
        self.residuals: List[np.ndarray] = []
        self.crossings: List[np.ndarray] = []
        self.shares: List[float] = []
        self.sums: List[float] = []
        self.rates: Optional[np.ndarray] = None

    def keep(self, levels: int) -> None:
        """Forget every level from ``levels`` on."""
        del self.residuals[levels:], self.crossings[levels:]
        del self.shares[levels:], self.sums[levels:]


def resume_levels(
    indices: np.ndarray,
    starts: np.ndarray,
    flow_of_entry: np.ndarray,
    capacities: np.ndarray,
    floor: np.ndarray,
    active: np.ndarray,
    trace: LevelTrace,
    departed: Optional[Sequence[int]],
) -> np.ndarray:
    """:func:`fill_levels` (unweighted) over ``active``, recorded in
    ``trace`` for the next call.

    ``departed`` is ``None`` for a first fill; otherwise ``active`` must
    be the active set of the fill ``trace`` holds minus the positions
    ``departed``.  Then no level below the lowest one at which a departed
    flow froze can change (DESIGN.md §7, "CSR progressive filling"), so
    the fill picks up there: the frozen flows keep their stamps, the
    crossing counts are counted afresh, the saved residuals stand except
    on the departed flows' links, which are replayed from capacity
    through the kept shares — the same two roundings per level.
    """
    sums = trace.sums
    first = 0
    # A one-level fill froze every flow at level 0: nothing to skip.
    if departed is not None and len(sums) > 1:
        first = bisect_left(sums, min(trace.rates[departed].tolist()))
    if not first:
        trace.keep(0)
        trace.rates = _levels(
            indices, starts, flow_of_entry, capacities, floor, active, trace
        )
        return trace.rates
    # Flows frozen below ``first`` hold rates below its sum and the rest
    # at least that; the sum is above an earlier one, so above 0, which
    # keeps the departed and inactive flows out.
    rates = np.where(active, trace.rates, 0.0)
    filling = rates >= sums[first]
    crossing = np.bincount(
        indices[filling[flow_of_entry]], minlength=len(capacities)
    ).astype(float)
    gone = trace.crossings[first] - crossing
    links = gone.nonzero()[0]
    gone = gone[links]
    left = capacities[links].tolist()
    for j in range(first):
        counts = trace.crossings[j][links] - gone
        trace.crossings[j][links] = counts
        share = float(trace.shares[j])
        left = [
            residual - share * count
            for residual, count in zip(left, counts.tolist())
        ]
        trace.residuals[j + 1][links] = left
    residual = trace.residuals[first]
    trace.keep(first)
    trace.rates = _levels(
        indices,
        starts,
        flow_of_entry,
        capacities,
        floor,
        filling,
        trace,
        (rates, residual, crossing, sums[-1]),
    )
    return trace.rates


def _levels(
    indices: np.ndarray,
    starts: np.ndarray,
    flow_of_entry: np.ndarray,
    capacities: np.ndarray,
    floor: np.ndarray,
    active: np.ndarray,
    trace: Optional[LevelTrace],
    resumed: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, float]] = None,
) -> np.ndarray:
    """The unweighted level loop over the ``active`` flows: from level 0,
    or from the state a later level starts with — ``resumed`` holds its
    rates so far, residual, crossing count and level sum, and ``active``
    the flows still filling (the loop's to change).  Stamps and returns
    the rates, leaves the residual and crossing arrays as they came, and
    records every level it computes in ``trace`` if there is one."""
    if resumed is None:
        rates = np.zeros(len(starts))
        crossing = np.bincount(
            indices[active[flow_of_entry]], minlength=len(capacities)
        ).astype(float)
        residual = np.asarray(capacities, dtype=float)
        level = 0.0
        active = active.copy()
    else:
        rates, residual, crossing, level = resumed
    # How many flows are still filling: decides every loop exit, so no
    # level pays for an ``.any()`` over a mask.
    filling = np.count_nonzero(active)
    if not filling:
        return rates
    num_links = len(capacities)
    if trace is not None:
        residuals, crossings = trace.residuals, trace.crossings
        shares, sums = trace.shares, trace.sums
    while True:
        # Some link is carried: a filling flow's route is non-empty.
        carried = crossing > 0.0
        bottleneck = np.minimum.reduce(residual[carried] / crossing[carried])
        level += bottleneck
        if trace is not None:
            residuals.append(residual)
            crossings.append(crossing)
            shares.append(bottleneck)
            sums.append(level)
        # New arrays, not in-place updates: the trace keeps the ones
        # this level started from (the residual takes the product's).  No
        # clamp at 0: a residual that rounds below 0 is under its floor,
        # so every flow on that link freezes now and it is never carried
        # again — as in cascade.ScalarPlan.
        spent = bottleneck * crossing
        residual = np.subtract(residual, spent, out=spent)
        saturated = residual <= floor
        # A flow freezes when any link on its route saturates.  The
        # reduceat runs over *all* flows (segments are non-empty by
        # contract); the active mask scopes the result.
        frozen = active & np.logical_or.reduceat(saturated[indices], starts)
        # Freezing nothing is a numerical corner (impossible in exact
        # arithmetic): then everything freezes at the minimum share,
        # which guarantees termination and mirrors the scalar solver.
        filling -= np.count_nonzero(frozen) or filling
        if not filling:
            rates[active] = level
            return rates
        rates[frozen] = level
        active ^= frozen  # frozen is a subset of active
        # Exact: both sides count entries, and the frozen ones were
        # counted in.
        crossing = crossing - np.bincount(
            indices[frozen[flow_of_entry]], minlength=num_links
        )


def _fill_levels_weighted(
    indices: np.ndarray,
    starts: np.ndarray,
    flow_of_entry: np.ndarray,
    capacities: np.ndarray,
    floor: np.ndarray,
    active: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted twin of the unweighted fill loop above.

    The per-link crossing *count* becomes the per-occurrence weight
    sum; an integer carrier count rides along so a link whose carriers
    all froze drops out exactly instead of surviving on float residue.
    Each filling flow gains its own ``bottleneck * weight`` per level,
    so rates are accumulated per flow, not stamped from one level.
    """
    num_links = len(capacities)
    rates = np.zeros(len(starts))
    filling = np.count_nonzero(active)
    if not filling:
        return rates
    active = active.copy()
    entry_weight = weights[flow_of_entry]
    entries = active[flow_of_entry]
    links = indices[entries]
    carriers = np.bincount(links, minlength=num_links)
    crossing = np.bincount(
        links, weights=entry_weight[entries], minlength=num_links
    )
    residual = capacities.astype(float, copy=True)
    while True:
        carried = carriers > 0
        bottleneck = np.minimum.reduce(residual[carried] / crossing[carried])
        rates[active] += bottleneck * weights[active]
        residual -= bottleneck * crossing
        np.maximum(residual, 0.0, out=residual)
        saturated = residual <= floor
        frozen = active & np.logical_or.reduceat(saturated[indices], starts)
        filling -= np.count_nonzero(frozen) or filling
        if not filling:
            return rates
        active ^= frozen
        entries = frozen[flow_of_entry]
        links = indices[entries]
        carriers -= np.bincount(links, minlength=num_links)
        crossing -= np.bincount(
            links, weights=entry_weight[entries], minlength=num_links
        )
        crossing[carriers <= 0] = 0.0
        np.maximum(crossing, 0.0, out=crossing)


def build_csr(
    routes: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-flow link-id sequences (lists or arrays) into
    (indices, indptr, flow_of_entry)."""
    lengths = np.fromiter(map(len, routes), dtype=np.intp, count=len(routes))
    indptr = np.zeros(len(routes) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.fromiter(
        chain.from_iterable(routes), dtype=np.intp, count=int(indptr[-1])
    )
    flow_of_entry = np.repeat(np.arange(len(routes), dtype=np.intp), lengths)
    return indices, indptr, flow_of_entry


def max_min_fair_rates_numpy(
    flow_routes: Mapping[Hashable, Sequence[Hashable]],
    link_capacities: Mapping[Hashable, float],
    flow_weights: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Hashable, float]:
    """Drop-in vectorized equivalent of :func:`~repro.network.
    fair_share.max_min_fair_rates` (same dict API, same semantics:
    empty routes get ``inf``, capacity is consumed per traversal for
    routes crossing a link more than once, optional per-flow weights
    for weighted fairness — flows absent from the mapping weigh 1.0)."""
    rates: Dict[Hashable, float] = {}
    constrained = []
    for flow_id, route in flow_routes.items():
        if route:
            constrained.append(flow_id)
        else:
            rates[flow_id] = float("inf")
    if not constrained:
        return rates

    link_ids: Dict[Hashable, int] = {}
    capacities = []
    routes = []
    for flow_id in constrained:
        row = []
        for link in flow_routes[flow_id]:
            index = link_ids.get(link)
            if index is None:
                capacity = float(link_capacities[link])
                if capacity <= 0:
                    raise ValueError(f"link {link!r} has capacity <= 0")
                index = len(link_ids)
                link_ids[link] = index
                capacities.append(capacity)
            row.append(index)
        routes.append(row)

    weight_array: Optional[np.ndarray] = None
    if flow_weights:
        weight_array = np.empty(len(constrained))
        for position, flow_id in enumerate(constrained):
            weight = float(flow_weights.get(flow_id, 1.0))
            if weight <= 0:
                raise ValueError(f"flow {flow_id!r} has weight <= 0")
            weight_array[position] = weight

    indices, indptr, flow_of_entry = build_csr(routes)
    solved = progressive_fill(
        indices,
        indptr,
        flow_of_entry,
        np.asarray(capacities),
        np.ones(len(constrained), dtype=bool),
        weights=weight_array,
    )
    for position, flow_id in enumerate(constrained):
        rates[flow_id] = float(solved[position])
    return rates
