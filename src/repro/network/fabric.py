"""The network fabric: flow-level transfer simulation.

:class:`NetworkFabric` is the component every other subsystem uses to move
bytes.  A call to :meth:`NetworkFabric.transfer` registers a fluid flow on
its route and returns an event that fires when the last byte (plus
propagation latency) arrives.  All concurrent flows share links according
to max-min fairness; rates are recomputed whenever

* a flow starts,
* a flow finishes, or
* a link capacity changes (bandwidth jitter).

Between recomputations every flow progresses linearly at its current rate.

Two solver drives exist:

* **vector** (default, production) — the
  :class:`~repro.network.IncrementalFairShare` component index scopes
  each perturbation to the connected components of flows and links it
  touches; their departure schedules are then precomputed as
  :class:`~repro.network.cascade.CascadePlan`\\ s (a scalar closed form
  for uniform-route components; progressive filling otherwise, in
  scalar Python up to ``cascade.SCALAR_MAX_FLOWS`` flows and numpy CSR
  above, solved a doubling batch of departures at a time as the clock
  reaches them).  Departures fire as bare precomputed timers with **zero**
  re-solves, and a later perturbation replays the plan to recover each
  member's exact remaining bytes;
* **global** (``drive="global"``, reference) — a from-scratch re-solve
  of every active flow on every event, kept as the oracle for the
  equivalence tests, the ``fabric_churn`` benchmark warm-up and the
  speedup microbenchmark.

Both produce the same (unique) max-min allocation; same-instant flow
arrivals and capacity changes are coalesced into a single solve.  The
global drive detects stale wake-ups with a version counter.
"""

from __future__ import annotations

import itertools
import math
import time
from functools import partial
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.sanitizer import get_sanitizer
from repro.metrics.perf import FabricPerfCounters
from repro.metrics.tenants import TenantLedger
from repro.network.cascade import CascadePlan, build_plan
from repro.network.fair_share import max_min_fair_rates
from repro.network.incremental import IncrementalFairShare
from repro.network.topology import Link, Topology
from repro.network.traffic_monitor import TrafficMonitor
from repro.simulation.event import Event
from repro.simulation.kernel import Simulator

# A flow is considered drained when the remaining bytes fall below this
# fraction of its size (with an absolute floor for tiny flows).  The
# threshold must be relative: float rounding on a multi-megabyte flow
# leaves ~1e-9 of its size unaccounted, far above any absolute epsilon.
_DRAIN_RELATIVE = 1e-9
_DRAIN_FLOOR = 1e-6


def _drain_threshold(size_bytes: float) -> float:
    return max(_DRAIN_FLOOR, _DRAIN_RELATIVE * size_bytes)


class Flow:
    """One in-flight transfer between two hosts."""

    __slots__ = (
        "flow_id",
        "src_host",
        "dst_host",
        "size_bytes",
        "remaining",
        "route",
        "latency",
        "tag",
        "tenant",
        "weight",
        "completion",
        "rate",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        flow_id: int,
        src_host: str,
        dst_host: str,
        size_bytes: float,
        route: List[Link],
        latency: float,
        tag: str,
        completion: Event,
        started_at: float,
        tenant: str = "",
        weight: float = 1.0,
    ) -> None:
        self.flow_id = flow_id
        self.src_host = src_host
        self.dst_host = dst_host
        self.size_bytes = float(size_bytes)
        self.remaining = float(size_bytes)
        self.route = route
        # Total propagation latency of the route, precomputed once.
        self.latency = latency
        self.tag = tag
        # Owning tenant ("" for untenanted traffic) and its
        # weighted-fair-share weight, resolved at admission.
        self.tenant = tenant
        self.weight = weight
        # Dropped when the flow lands: the event's value is the flow, and
        # a landed flow must not keep its event alive (or form a cycle).
        self.completion: Optional[Event] = completion
        self.rate = 0.0
        self.started_at = started_at
        self.finished_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.flow_id} {self.src_host}->{self.dst_host} "
            f"{self.remaining:.0f}/{self.size_bytes:.0f}B @{self.rate:.0f}B/s>"
        )


class FlowCompletion(Event):
    """A flow's completion event, named after the flow when printed."""

    __slots__ = ("flow_id",)

    def _label(self) -> str:
        return f"flow{self.flow_id}:done"


class NetworkFabric:
    """Schedules fluid flows over a :class:`Topology` with fair sharing."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        monitor: Optional[TrafficMonitor] = None,
        drive: str = "vector",
    ) -> None:
        """``drive`` selects the solver drive: ``"vector"`` (production)
        or ``"global"`` (the reference oracle)."""
        if drive not in ("vector", "global"):
            raise ValueError(f"unknown fabric drive: {drive!r}")
        self.sim = sim
        self.topology = topology
        self.monitor = monitor if monitor is not None else TrafficMonitor()
        self.perf = FabricPerfCounters()
        # Runtime invariant sanitizer (None unless REPRO_SANITIZE /
        # --sanitize): checks capacity conservation and rate sanity
        # after every solve.  Captured once, so the off case costs one
        # attribute load + None test per solve.
        self.sanitizer = get_sanitizer()
        # tenant -> weighted-fair-share weight (> 0); flows issued for a
        # tenant absent from the registry weigh 1.0.  Populated by the
        # inter-job scheduler; untouched (empty) for single-job runs so
        # the solvers stay on the bit-identical unweighted path.
        self.tenant_weights: Dict[str, float] = {}
        # Creation-time per-tenant byte accounting (admission charges,
        # cancel refunds); reconciles exactly with the traffic monitor's
        # per-tenant totals once all flows have landed.
        self.tenant_ledger = TenantLedger()
        self.drive = drive
        # link name -> health-advised capacity ceiling (circuit-breaker
        # hints); shared by reference with the component index so a
        # mutation here clamps its next capacity read.
        self._capacity_hints: Dict[str, float] = {}
        # The vector drive's flow<->link component index; ``None`` on
        # the global reference drive, which re-solves everything.
        self._engine: Optional[IncrementalFairShare] = (
            IncrementalFairShare(hints=self._capacity_hints)
            if drive == "vector"
            else None
        )
        self._flows: Dict[int, Flow] = {}
        self._flow_by_event: Dict[Event, Flow] = {}
        self._flow_ids = itertools.count()
        self._recompute_pending = False
        # Global drive only: when progress was last charged, and the
        # version stamp that retires superseded wake-ups.
        self._last_update = sim.now
        self._wake_version = 0
        # Vector drive only: the seeds of the next (batched) re-plan,
        # and flow id -> its live CascadePlan.
        self._dirty_flows: Set[int] = set()
        self._dirty_links: Set[str] = set()
        self._plans: Dict[int, CascadePlan] = {}
        self.completed_flows: List[Flow] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def transfer(
        self,
        src_host: str,
        dst_host: str,
        size_bytes: float,
        tag: str = "",
        tenant: str = "",
    ) -> Event:
        """Start moving ``size_bytes`` from src to dst.

        Returns an event firing with the :class:`Flow` once the transfer
        (including propagation latency) completes.  Same-host transfers and
        empty payloads complete after the route latency alone.  ``tenant``
        attributes the bytes to a tenant and picks up that tenant's
        fair-share weight from :attr:`tenant_weights`.
        """
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        flow_id = next(self._flow_ids)
        route = self.topology.route(src_host, dst_host)
        latency = self.topology.route_latency(src_host, dst_host)
        completion = FlowCompletion(self.sim)
        completion.flow_id = flow_id
        weight = self.tenant_weights.get(tenant, 1.0) if tenant else 1.0
        flow = Flow(
            flow_id,
            src_host,
            dst_host,
            size_bytes,
            route,
            latency,
            tag,
            completion,
            started_at=self.sim.now,
            tenant=tenant,
            weight=weight,
        )
        if tenant and size_bytes > 0:
            # Admission-time tenant accounting (mirrors the shuffle
            # counters: charged here, refunded on cancel) — must
            # reconcile with the monitor's completion-time records.
            self.tenant_ledger.account(
                tenant,
                flow_id,
                size_bytes,
                wan=self.topology.datacenter_of(src_host)
                != self.topology.datacenter_of(dst_host),
            )
        if not route or size_bytes <= _DRAIN_FLOOR:
            self._finish_flow(flow, extra_delay=latency)
            return completion
        self._flows[flow_id] = flow
        self._flow_by_event[completion] = flow
        self.perf.note_admission(len(self._flows))
        if self._engine is not None:
            self._engine.add_flow(flow_id, route, weight=weight)
            self._dirty_flows.add(flow_id)
        else:
            self._advance_progress()
        # Batch rate recomputation: a reducer starting dozens of fetch
        # flows in one instant triggers a single solve, not one each.
        self._schedule_recompute()
        return flow.completion

    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    def active_flow_ids(self) -> Tuple[int, ...]:
        """The in-flight flow ids (sanitizer reconciliation excludes
        them: their admission charges have no monitor record yet)."""
        return tuple(self._flows)

    def active_flows(self) -> List[Flow]:
        """The in-flight flows, with ``remaining`` charged up to now
        (the global drive charges at its own events only)."""
        for flow in self._flows.values():
            self._sync_flow(flow)
        return list(self._flows.values())

    def current_rate(self, flow_event: Event) -> float:
        """The instantaneous rate of the flow owning ``flow_event``."""
        flow = self._flow_by_event.get(flow_event)
        if flow is None:
            return 0.0
        self._sync_flow(flow)
        return flow.rate

    def notify_capacity_change(self, changed_links: Iterable[Link]) -> None:
        """Re-solve rates after the ``changed_links`` capacities changed
        (jitter, chaos, breaker hints).

        The re-solve is scoped to the components those links carry; a
        change touching only idle links is a no-op.  Same-instant
        changes coalesce with pending arrivals/departures into one
        solve.
        """
        if not self._flows:
            self.perf.jitter_noops += 1
            return
        if self._engine is None:
            self._advance_progress()
            self._reschedule_global()
            return
        touched = False
        for link in changed_links:
            if self._engine.update_capacity(link):
                self._dirty_links.add(link.name)
                touched = True
        if touched:
            self._schedule_recompute()
        else:
            self.perf.jitter_noops += 1

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Set one link's capacity and re-solve its component.

        The one-stop entry point for runtime capacity changes (chaos
        WAN degradation/flaps, operational re-provisioning): mutates the
        link and scopes the fair-share re-solve to it, exactly like a
        jitter resample.
        """
        link.set_capacity(capacity)
        self.notify_capacity_change(changed_links=(link,))

    def set_link_degrade(self, link: Link, factor: float) -> None:
        """Apply a multiplicative chaos degrade to one link and re-solve.

        Unlike :meth:`set_link_capacity`, the factor overlays whatever
        nominal capacity the link's bandwidth process (jitter, static
        pin) maintains — a later jitter resample keeps the degrade.
        Reset with ``factor=1.0``.
        """
        link.set_degrade_factor(factor)
        self.notify_capacity_change(changed_links=(link,))

    def set_link_partition(self, link: Link, down: bool) -> None:
        """Partition (or heal) one directed link and re-solve.

        A partitioned link's effective capacity collapses to the
        partition floor regardless of its nominal capacity or degrade
        factor; in-flight flows stall until their health deadline fires
        and the retry machinery re-routes them.  Healing restores the
        capacity jitter/degrade currently prescribe.
        """
        link.set_partitioned(down)
        self.notify_capacity_change(changed_links=(link,))

    def set_capacity_hint(self, link: Link, rate: float) -> None:
        """Clamp the solver's view of ``link`` to ``rate`` bytes/second
        without touching the link itself (chaos and jitter keep owning
        the real capacity).  Used by the circuit breaker to model
        endpoint backoff on a sick path; a hint at or above the real
        capacity is a no-op by construction."""
        self._capacity_hints[link.name] = rate
        self.notify_capacity_change(changed_links=(link,))

    def clear_capacity_hint(self, link: Link) -> None:
        if self._capacity_hints.pop(link.name, None) is not None:
            self.notify_capacity_change(changed_links=(link,))

    def cancel(self, flow_event: Event) -> Optional[float]:
        """Abort the in-flight flow owning ``flow_event``.

        Returns the bytes it had delivered by now (recorded with the
        traffic monitor under the flow's tag, so monitor totals keep
        matching what actually crossed the links), or ``None`` when the
        flow already departed — its completion event is pending (only
        propagation latency remains) and the caller should await it
        instead.  The completion event of a cancelled flow never fires.
        """
        flow = self._flow_by_event.get(flow_event)
        if flow is None:
            return None
        if self._engine is None:
            self._advance_progress()
        else:
            # Replay the plan up to now for the exact delivered bytes,
            # then invalidate it: the survivors' schedules change once
            # the cancelled flow's share frees up, so they re-enter the
            # next resolve as dirty seeds.
            self._sync_flow(flow)
            plan = self._plans.get(flow.flow_id)
            if plan is not None:
                self._invalidate_plan(plan)
                self._dirty_flows.update(
                    fid for fid in plan.flow_ids if fid in self._flows
                )
                self._dirty_flows.discard(flow.flow_id)
            self._engine.remove_flow(flow.flow_id)
            self._dirty_links.update(link.name for link in flow.route)
        del self._flows[flow.flow_id]
        del self._flow_by_event[flow.completion]
        # Freed capacity redistributes to the survivors.
        self._schedule_recompute()
        flow.finished_at = self.sim.now
        delivered = flow.size_bytes - flow.remaining
        if delivered < 0:
            delivered = 0.0
        src_dc = self.topology.datacenter_of(flow.src_host)
        dst_dc = self.topology.datacenter_of(flow.dst_host)
        if flow.tenant:
            # Refund the bytes that never crossed the links: the charge
            # becomes exactly the delivered value the monitor records,
            # so admission-time totals reconcile with completion-time
            # records to the last bit.
            self.tenant_ledger.settle(flow.flow_id, delivered)
        if delivered > 0:
            self.monitor.record(
                src_dc, dst_dc, delivered, flow.tag, tenant=flow.tenant
            )
        return delivered

    def set_tenant_weight(self, tenant: str, weight: float) -> None:
        """Register ``tenant``'s fair-share weight (> 0).

        Applies to flows admitted *after* the call; in-flight flows
        keep the weight they were admitted with.
        """
        if not tenant:
            raise ValueError("tenant name must be non-empty")
        if weight <= 0:
            raise ValueError(f"tenant {tenant!r} has weight <= 0")
        self.tenant_weights[tenant] = float(weight)

    def solver_inputs(self) -> Tuple[Dict[int, Tuple[str, ...]], Dict[str, float]]:
        """The global (routes, capacities) dicts describing the current
        active set — feed to :func:`max_min_fair_rates` to cross-check
        allocations (used by the equivalence tests)."""
        if self._engine is not None:
            return self._engine.solver_inputs()
        return self._build_solver_inputs()

    def solver_weights(self) -> Optional[Dict[int, float]]:
        """The active set's flow-weight mapping, or ``None`` when every
        active flow weighs 1.0 (the unweighted fast path)."""
        if self._engine is not None:
            return self._engine.solver_weights()
        weights = {
            flow_id: flow.weight
            for flow_id, flow in self._flows.items()
            if flow.weight != 1.0
        }
        return weights or None

    def perf_snapshot(self) -> Dict[str, float]:
        """Perf counters plus the topology's route-cache statistics."""
        snapshot = self.perf.as_dict()
        snapshot["route_cache_hits"] = float(self.topology.route_cache_hits)
        snapshot["route_cache_misses"] = float(self.topology.route_cache_misses)
        return snapshot

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _schedule_recompute(self) -> None:
        if self._recompute_pending:
            return
        self._recompute_pending = True
        trigger = self.sim.event(name="fabric:recompute")
        trigger.add_callback(self._run_recompute)
        trigger.succeed(None)

    def _run_recompute(self, _event) -> None:
        self._recompute_pending = False
        self.perf.events += 1
        if self._engine is None:
            self._advance_progress()
            self._reschedule_global()
        else:
            self._resolve_dirty_vector()

    def _finish_flow(self, flow: Flow, extra_delay: float) -> None:
        if self.sanitizer is not None:
            # Every flow funnels through here exactly once on either
            # drive, so the remaining-bytes invariant is always
            # exercised even on runs with no mid-plan perturbations.
            self.sanitizer.check_remaining(flow.flow_id, flow.remaining)
        flow.finished_at = self.sim.now + extra_delay
        if flow.size_bytes > 0:
            # Zero-byte transfers are control-plane no-ops; recording
            # them would pollute the traffic matrices with empty entries.
            src_dc = self.topology.datacenter_of(flow.src_host)
            dst_dc = self.topology.datacenter_of(flow.dst_host)
            self.monitor.record(
                src_dc, dst_dc, flow.size_bytes, flow.tag, tenant=flow.tenant
            )
        self.completed_flows.append(flow)
        completion = flow.completion
        flow.completion = None
        if extra_delay > 0:
            self.sim.call_later(extra_delay, partial(completion.succeed, flow))
        else:
            completion.succeed(flow)

    # ------------------------------------------------------------------
    # Vector drive (cascade plans)
    # ------------------------------------------------------------------
    def _sync_flow(self, flow: Flow) -> None:
        """Refresh ``remaining``/``rate`` from the flow's live plan.

        The vector drive never touches Flow objects between
        perturbations (their state lives in the plan arrays), so every
        external read goes through this replay.  The global drive keeps
        no plans, so for it this is a no-op.
        """
        plan = self._plans.get(flow.flow_id)
        if plan is None or not plan.alive:
            return
        now = self.sim.now
        pos = plan.pos_of[flow.flow_id]
        flow.remaining = plan.remaining_at(pos, now)
        flow.rate = plan.rate_at(pos, now)
        if self.sanitizer is not None:
            self.sanitizer.check_remaining(flow.flow_id, flow.remaining)

    def _invalidate_plan(self, plan: CascadePlan) -> None:
        """Kill a plan: lazily cancel its timers, let go of them, and
        replay every still-active member up to now (one segment lookup
        for the whole plan) so ``remaining`` is exact before the
        re-plan."""
        if not plan.alive:
            return
        plan.alive = False
        for handle in plan.timers:
            handle.cancel()
        plan.timers.clear()
        remaining, rates = plan.state_at(self.sim.now)
        flows = self._flows
        plans = self._plans
        for pos, flow_id in enumerate(plan.flow_ids):
            flow = flows.get(flow_id)
            if flow is None:
                continue
            flow.remaining = remaining[pos]
            flow.rate = rates[pos]
            if plans.get(flow_id) is plan:
                del plans[flow_id]

    def _resolve_dirty_vector(self) -> None:
        """Invalidate perturbed plans, retire drained flows, and build
        fresh cascade plans per connected component."""
        engine = self._engine
        assert engine is not None
        dirty_flows, self._dirty_flows = self._dirty_flows, set()
        dirty_links, self._dirty_links = self._dirty_links, set()
        # repro-lint: allow[DET002] measures real solver cost for the perf counters; never feeds simulated time
        started = time.perf_counter()
        # Seed set only (no union BFS — each component is discovered
        # exactly once during partitioning below).
        seeds = {f for f in dirty_flows if f in self._flows}
        for name in dirty_links:
            seeds.update(engine.flows_on(name))
        # A plan may span flows a component BFS no longer reaches (the
        # component split mid-plan); the whole plan dies, so all its
        # still-active members get re-planned too.  Plans are iterated
        # in flow-id order (flow_ids is sorted, so [0] is the plan's
        # minimum): a raw set of plan objects would iterate in
        # memory-address order and leak it into the seed set's history.
        for plan in sorted(
            {
                self._plans[flow_id]
                for flow_id in seeds
                if flow_id in self._plans
            },
            key=lambda p: p.flow_ids[0],
        ):
            members = [f for f in plan.flow_ids if f in self._flows]
            self._invalidate_plan(plan)
            seeds.update(members)
        if not seeds:
            return
        # One plan per connected component; sorted worklist iteration
        # keeps plan construction (and therefore timer sequence
        # numbers) fully deterministic.
        visited: Set[int] = set()
        now = self.sim.now
        worklist = sorted(seeds)
        cursor = 0
        while cursor < len(worklist):
            seed = worklist[cursor]
            cursor += 1
            if seed in visited or seed not in self._flows:
                continue
            component = engine.component((seed,), ())
            visited |= component
            # Invalidate plans of flows pulled in via connectivity that
            # were not dirty seeds themselves (charges them to now).
            # Such a plan may span members this component BFS cannot
            # reach (it split mid-plan) — queue them for re-planning.
            # Sorted plan order keeps the worklist append order (and so
            # component planning order and timer sequence numbers) a
            # pure function of the flow ids, not of object addresses.
            for plan in sorted(
                {self._plans[f] for f in component if f in self._plans},
                key=lambda p: p.flow_ids[0],
            ):
                for flow_id in plan.flow_ids:
                    if (
                        flow_id not in component
                        and flow_id not in visited
                        and flow_id in self._flows
                    ):
                        worklist.append(flow_id)
                self._invalidate_plan(plan)
            # Retire members that drained exactly by now (e.g. a
            # capacity perturbation landing on a departure instant,
            # before the departure timer fired within the same batch).
            for flow_id in sorted(component):
                flow = self._flows[flow_id]
                if flow.remaining <= _drain_threshold(flow.size_bytes):
                    component.discard(flow_id)
                    self._depart(flow)
            if not component:
                continue
            members = sorted(component)
            remaining = [self._flows[f].remaining for f in members]
            plan = build_plan(
                members,
                remaining,
                *engine.subproblem(members),
                now,
                weights=engine.weights_for(members),
            )
            for pos, flow_id in enumerate(plan.flow_ids):
                flow = self._flows[flow_id]
                flow.rate = plan.initial_rate(pos)
                self._plans[flow_id] = plan
            if self.sanitizer is not None:
                self.sanitizer.check_rates(
                    {
                        flow_id: plan.initial_rate(pos)
                        for pos, flow_id in enumerate(plan.flow_ids)
                    },
                    *engine.solver_inputs(members),
                )
            self.perf.note_plan(plan.shape)
            self.perf.plan_segments_planned += len(plan.departs)
            self._arm_departures(plan)
            self.perf.solves += 1
            self.perf.flows_touched += len(members)
        # repro-lint: allow[DET002] measures real solver cost for the perf counters; never feeds simulated time
        self.perf.solver_seconds += time.perf_counter() - started

    def _arm_departures(self, plan: CascadePlan) -> None:
        """Arm one bare timer per segment boundary up to the plan's
        horizon, continuing after those already armed."""
        timers = plan.timers
        call_at = self.sim.call_at
        fire = self._fire_departure
        armed = len(timers)
        for segment, depart_time in enumerate(plan.depart_times(armed), armed):
            timers.append(call_at(depart_time, partial(fire, plan, segment)))

    def _fire_departure(self, plan: CascadePlan, segment: int) -> None:
        """The departure timer of one plan segment boundary."""
        self.perf.events += 1
        self.perf.plan_segments_fired += 1
        flows = self._flows
        plans = self._plans
        flow_ids = plan.flow_ids
        for pos in plan.departs[segment]:
            flow_id = flow_ids[pos]
            flow = flows.get(flow_id)
            if flow is None:
                continue
            flow.remaining = 0.0
            if plans.get(flow_id) is plan:
                del plans[flow_id]
            self._depart(flow)
        # No re-solve: the plan already models the post-departure rates
        # of every surviving member.  At the last armed boundary, a plan
        # with segments beyond its horizon pushes the horizon out (solving
        # further ahead if it must) and arms what that yields; one whose
        # last segment this was lets go of its timers.
        if segment + 1 < len(plan.timers):
            return
        if plan.horizon == len(plan.departs):  # solved and armed to the end
            plan.timers.clear()
            return
        # repro-lint: allow[DET002] measures real solver cost for the perf counters; never feeds simulated time
        started = time.perf_counter()
        self.perf.plan_segments_planned += plan.extend()
        self._arm_departures(plan)
        # repro-lint: allow[DET002] measures real solver cost for the perf counters; never feeds simulated time
        self.perf.solver_seconds += time.perf_counter() - started

    def _depart(self, flow: Flow) -> None:
        """Remove a drained flow from the graph and complete it."""
        del self._flows[flow.flow_id]
        del self._flow_by_event[flow.completion]
        assert self._engine is not None
        self._engine.remove_flow(flow.flow_id)
        self._finish_flow(flow, extra_delay=flow.latency)

    # ------------------------------------------------------------------
    # Global drive (the reference oracle)
    # ------------------------------------------------------------------
    def _advance_progress(self) -> None:
        """Charge each active flow for the time elapsed at its old rate."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0:
            return
        for flow in self._flows.values():
            flow.remaining -= flow.rate * elapsed
            if flow.remaining < 0:
                flow.remaining = 0.0

    def _build_solver_inputs(
        self,
    ) -> Tuple[Dict[int, Tuple[str, ...]], Dict[str, float]]:
        routes: Dict[int, Tuple[str, ...]] = {}
        capacities: Dict[str, float] = {}
        hints = self._capacity_hints
        for flow_id, flow in self._flows.items():
            for link in flow.route:
                capacity = link.capacity
                hint = hints.get(link.name)
                if hint is not None and hint < capacity:
                    capacity = hint
                capacities[link.name] = capacity
            routes[flow_id] = tuple(link.name for link in flow.route)
        return routes, capacities

    def _recompute_rates(self) -> None:
        # repro-lint: allow[DET002] measures real solver cost for the perf counters; never feeds simulated time
        started = time.perf_counter()
        routes, capacities = self._build_solver_inputs()
        rates = max_min_fair_rates(
            routes, capacities, flow_weights=self.solver_weights()
        )
        for flow_id, flow in self._flows.items():
            flow.rate = rates[flow_id]
        if self.sanitizer is not None:
            self.sanitizer.check_rates(rates, routes, capacities)
        self.perf.solves += 1
        self.perf.flows_touched += len(self._flows)
        # repro-lint: allow[DET002] measures real solver cost for the perf counters; never feeds simulated time
        self.perf.solver_seconds += time.perf_counter() - started

    def _reschedule_global(self) -> None:
        """Complete drained flows, re-solve rates, and plan the next wake."""
        # Retire every flow that drained by now (possibly several at once).
        drained = [
            flow
            for flow in self._flows.values()
            if flow.remaining <= _drain_threshold(flow.size_bytes)
        ]
        for flow in drained:
            del self._flows[flow.flow_id]
            del self._flow_by_event[flow.completion]
            self._finish_flow(flow, extra_delay=flow.latency)

        if not self._flows:
            self._wake_version += 1
            return

        self._recompute_rates()
        horizon = min(
            flow.remaining / flow.rate
            for flow in self._flows.values()
            if flow.rate > 0
        )
        # Guard against a zero horizon caused by floating-point residue.
        max_rate = max(flow.rate for flow in self._flows.values())
        horizon = max(horizon, _DRAIN_FLOOR / max_rate)
        self._wake_version += 1
        version = self._wake_version
        wake = self.sim.timeout(horizon, name=f"fabric:wake@{version}")
        wake.add_callback(lambda _event: self._on_wake_global(version))

    def _on_wake_global(self, version: int) -> None:
        if version != self._wake_version:
            return  # superseded by a newer reschedule
        self.perf.events += 1
        self._advance_progress()
        self._reschedule_global()


def ideal_transfer_time(
    topology: Topology, src_host: str, dst_host: str, size_bytes: float
) -> float:
    """Lower-bound transfer time assuming the flow is alone on its route."""
    route = topology.route(src_host, dst_host)
    latency = sum(link.latency for link in route)
    if not route or size_bytes <= 0:
        return latency
    bottleneck = min(link.capacity for link in route)
    if bottleneck <= 0 or math.isinf(bottleneck):  # pragma: no cover
        return latency
    return latency + size_bytes / bottleneck
