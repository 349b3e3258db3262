"""The flow<->link component index behind the fabric's vector drive.

A from-scratch fabric re-solves *all* active flows on every arrival,
departure, and capacity change.  :class:`IncrementalFairShare` instead
maintains the flow<->link bipartite graph incrementally, so the vector
drive (:mod:`repro.network.fabric`) re-plans only the **connected
component** of flows and links a perturbation actually touches:

* flows in disjoint components keep their cascade plans (a LAN-only
  flow in ``us-west`` never triggers a re-plan of the Tokyo<->Virginia
  WAN component);
* the route and capacity dictionaries are maintained across solves —
  adding a flow inserts its (precomputed, memoized) route once, and
  :meth:`~IncrementalFairShare.subproblem` slices them instead of
  rebuilding the world;
* a capacity change on a link with zero active flows is a no-op.

The index does not solve anything itself: it hands
:meth:`~IncrementalFairShare.subproblem` /
:meth:`~IncrementalFairShare.weights_for` slices to the cascade
planner (:func:`repro.network.cascade.build_plan`).  Because the
max-min allocation is unique and components are independent constraint
systems, a component-scoped solve yields the same rates as a global
from-scratch one (property-tested in
``tests/network/test_incremental_fair_share.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.network.topology import Link

FlowId = int


class IncrementalFairShare:
    """Flow<->link graph: components and their solver sub-problems."""

    def __init__(self, hints: Optional[Dict[str, float]] = None) -> None:
        # link name -> health-advised capacity ceiling (shared with the
        # fabric, which mutates it); clamps every capacity read so an
        # open circuit breaker can throttle a sick path below its
        # nominal bandwidth without touching the Link object.
        self._hints: Dict[str, float] = hints if hints is not None else {}
        # flow id -> solver route (link names, the graph's edges), built
        # once at admission and reused by every subsequent solve.
        self._routes: Dict[FlowId, Tuple[str, ...]] = {}
        # link name -> ids of flows currently crossing it.
        self._link_flows: Dict[str, Set[FlowId]] = {}
        # link name -> current capacity; kept in lockstep with the graph
        # instead of being rebuilt per solve.
        self._capacities: Dict[str, float] = {}
        # flow id -> fair-share weight; ``_non_unit`` counts flows whose
        # weight != 1.0 so the all-unit case hands the solvers *no*
        # weight mapping at all and stays on the bit-identical
        # unweighted code path.
        self._weights: Dict[FlowId, float] = {}
        self._non_unit = 0

    def _effective_capacity(self, link: Link) -> float:
        hint = self._hints.get(link.name)
        capacity = link.capacity
        if hint is not None and hint < capacity:
            return hint
        return capacity

    # ------------------------------------------------------------------
    # Graph maintenance
    # ------------------------------------------------------------------
    def add_flow(
        self, flow_id: FlowId, route: Sequence[Link], weight: float = 1.0
    ) -> None:
        """Register a flow; capacities of newly-carried links are read
        fresh from the :class:`Link` objects (they may have jittered
        while idle).  ``weight`` is the flow's weighted-fair-share
        weight (tenant weight; > 0)."""
        if weight <= 0:
            raise ValueError(f"flow {flow_id!r} has weight <= 0")
        self._weights[flow_id] = weight
        if weight != 1.0:
            self._non_unit += 1
        names: List[str] = []
        for link in route:
            name = link.name
            names.append(name)
            carriers = self._link_flows.get(name)
            if carriers is None:
                self._link_flows[name] = {flow_id}
                self._capacities[name] = self._effective_capacity(link)
            else:
                carriers.add(flow_id)
        self._routes[flow_id] = tuple(names)

    def remove_flow(self, flow_id: FlowId) -> None:
        route = self._routes.pop(flow_id)
        # dict.fromkeys dedupes while keeping order: a route may cross
        # the same link twice, but the carrier set must be unwound once.
        for name in dict.fromkeys(route):
            carriers = self._link_flows[name]
            carriers.discard(flow_id)
            if not carriers:
                del self._link_flows[name]
                del self._capacities[name]
        if self._weights.pop(flow_id) != 1.0:
            self._non_unit -= 1

    def update_capacity(self, link: Link) -> bool:
        """Absorb a capacity change.  Returns True when the link carries
        active flows (a re-solve of its component is needed); an idle
        link is a pure no-op — its fresh capacity is read at the next
        admission that crosses it."""
        if link.name not in self._link_flows:
            return False
        self._capacities[link.name] = self._effective_capacity(link)
        return True

    # ------------------------------------------------------------------
    # Components and their sub-problems
    # ------------------------------------------------------------------
    def component(
        self, seed_flows: Iterable[FlowId], seed_links: Iterable[str]
    ) -> Set[FlowId]:
        """Every flow connected (via links they share) to the seeds."""
        stack: List[FlowId] = [f for f in seed_flows if f in self._routes]
        for name in seed_links:
            stack.extend(self._link_flows.get(name, ()))
        component: Set[FlowId] = set()
        seen_links: Set[str] = set()
        while stack:
            flow_id = stack.pop()
            if flow_id in component:
                continue
            component.add(flow_id)
            for name in self._routes[flow_id]:
                if name in seen_links:
                    continue
                seen_links.add(name)
                for other in self._link_flows[name]:
                    if other not in component:
                        stack.append(other)
        return component

    def subproblem(
        self, flow_ids: Iterable[FlowId]
    ) -> Tuple[List[Tuple[str, ...]], Dict[str, float]]:
        """The constraint system restricted to ``flow_ids``, as the
        cascade planner consumes it: per flow (in the order given) its
        link names, and the capacity of every link named."""
        capacities = self._capacities
        routes = [self._routes[flow_id] for flow_id in flow_ids]
        return routes, {name: capacities[name] for names in routes for name in names}

    def flows_on(self, name: str) -> Iterable[FlowId]:
        """The flows currently crossing link ``name`` (possibly none)."""
        return self._link_flows.get(name, ())

    def weights_for(
        self, flow_ids: Iterable[FlowId]
    ) -> Optional[Dict[FlowId, float]]:
        """The weight mapping for ``flow_ids`` — or ``None`` when every
        registered flow weighs 1.0, so callers hand the solvers nothing
        and stay on the bit-identical unweighted path."""
        if not self._non_unit:
            return None
        return {flow_id: self._weights[flow_id] for flow_id in flow_ids}

    # ------------------------------------------------------------------
    # Introspection (tests, verification)
    # ------------------------------------------------------------------
    def solver_inputs(
        self, flow_ids: Optional[Iterable[FlowId]] = None
    ) -> Tuple[Dict[FlowId, Tuple[str, ...]], Dict[str, float]]:
        """Copies of the (routes, capacities) solver inputs of every
        flow, or of ``flow_ids`` only.  Feed
        them to :func:`max_min_fair_rates` to cross-check the vector
        drive's rates against a from-scratch solve (the tests and the
        sanitizer do)."""
        if flow_ids is None:
            return dict(self._routes), dict(self._capacities)
        routes = {flow_id: self._routes[flow_id] for flow_id in flow_ids}
        capacities = {
            name: self._capacities[name]
            for names in routes.values()
            for name in names
        }
        return routes, capacities

    def solver_weights(self) -> Optional[Dict[FlowId, float]]:
        """The non-unit flow weights, or ``None`` when all flows weigh
        1.0 (absent flows weigh 1.0 by solver contract)."""
        if not self._non_unit:
            return None
        return {
            flow_id: weight
            for flow_id, weight in self._weights.items()
            if weight != 1.0
        }
