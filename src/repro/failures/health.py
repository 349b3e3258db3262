"""Health-aware degradation: blacklisting, circuit breakers, flow retry.

PR 3's recovery machinery handles every fault with the bluntest
instrument available — interrupt the attempt, resubmit the parent stage
from lineage.  This module adds the *graceful* middle of the failure
spectrum (the FuxiShuffle/Exoshuffle argument: recovery policy belongs
in the shuffle layer, layered below lineage):

* :class:`BlacklistTracker` — Spark-style excludeOnFailure.  Per-
  (executor, stage) and per-executor failure counts with configurable
  thresholds; an executor crossing the app-wide threshold is excluded
  for ``blacklist_timeout`` simulated seconds, and a datacenter most of
  whose executors are excluded is escalated whole.  Consulted by
  :class:`~repro.scheduler.task_scheduler.TaskScheduler` at placement.
* :class:`LinkHealthMonitor` — a per-directed-WAN-pair circuit breaker
  (closed -> open -> half-open with probe flows) driven by flow
  deadline misses, feeding a reduced capacity *hint* (the EWMA of
  observed rates on the sick path) into the fair-share fabric while the
  breaker is open.
* :func:`transfer_with_retry` — the flow-level retry loop used by the
  shuffle backends and the DFS input reader: race each flow against a
  per-flow deadline, cancel and re-issue on a miss (possibly from
  another replica, honoring ``dfs_replication``), with exponential
  backoff.  The final attempt runs without a deadline, so slowness
  alone never escalates; genuinely missing data raises
  ``FetchFailedError`` through the caller-supplied ``check`` hook.

Everything rides the deterministic simulation clock (all state
transitions are functions of ``sim.now``), and every byte an abandoned
flow delivered is reconciled exactly between the backend counters and
the traffic monitor (see ``NetworkFabric.cancel``), so the
counter-vs-monitor equality invariant holds under any chaos schedule
with retries enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.config import HealthConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.perf import HealthCounters
    from repro.network.fabric import NetworkFabric
    from repro.network.topology import Topology

# Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

# Admission verdicts.
ALLOW = "allow"
PROBE = "probe"
DEFER = "defer"


class BlacklistTracker:
    """excludeOnFailure: executor -> host -> datacenter escalation.

    One executor per host in this simulation, so the per-executor and
    per-host tiers coincide: repeated failures inside one stage exclude
    the (executor, stage) pair for that stage's lifetime; enough
    failures across stages exclude the executor app-wide until
    ``blacklist_timeout`` elapses; and a datacenter with
    ``datacenter_exclusion_threshold`` (or more) currently-excluded
    executors is treated as excluded whole.  Expiry is lazy — checked
    against ``sim.now`` on every query — so no background process runs.
    """

    def __init__(
        self,
        config: HealthConfig,
        counters: HealthCounters,
        topology: Topology,
        sim,
    ) -> None:
        self.config = config
        self.counters = counters
        self.topology = topology
        self.sim = sim
        self._stage_failures: Dict[Tuple[str, int], int] = {}
        self._stage_excluded: Set[Tuple[str, int]] = set()
        self._host_failures: Dict[str, int] = {}
        # host -> expiry time (simulated) of its app-wide exclusion.
        self._host_excluded: Dict[str, float] = {}
        # Datacenters whose escalation has been counted (reset when the
        # excluded-host count drops back below the threshold).
        self._escalated: Set[str] = set()

    @property
    def enabled(self) -> bool:
        return self.config.blacklist_enabled

    # ------------------------------------------------------------------
    # Failure observation
    # ------------------------------------------------------------------
    def note_task_failure(self, host: str, stage_id: int) -> None:
        """Record one failed task attempt of ``stage_id`` on ``host``."""
        if not self.enabled:
            return
        self._sweep()
        key = (host, stage_id)
        count = self._stage_failures.get(key, 0) + 1
        self._stage_failures[key] = count
        if (
            count >= self.config.max_task_failures_per_executor_stage
            and key not in self._stage_excluded
        ):
            self._stage_excluded.add(key)
            self.counters.stage_exclusions += 1
        total = self._host_failures.get(host, 0) + 1
        self._host_failures[host] = total
        if (
            total >= self.config.max_task_failures_per_executor
            and host not in self._host_excluded
        ):
            self._host_excluded[host] = (
                self.sim.now + self.config.blacklist_timeout
            )
            self._host_failures[host] = 0  # a fresh window after expiry
            self.counters.hosts_blacklisted += 1
            self._check_escalation(self.topology.datacenter_of(host))

    def exclude_host(self, host: str) -> None:
        """Directly exclude ``host`` app-wide (operator-fed exclusion)."""
        if not self.enabled:
            return
        self._sweep()
        if host not in self._host_excluded:
            self._host_excluded[host] = (
                self.sim.now + self.config.blacklist_timeout
            )
            self.counters.hosts_blacklisted += 1
            self._check_escalation(self.topology.datacenter_of(host))

    # ------------------------------------------------------------------
    # Queries (all lazily expire first)
    # ------------------------------------------------------------------
    def is_excluded(self, host: str, stage_id: Optional[int] = None) -> bool:
        if not self.enabled:
            return False
        self._sweep()
        if host in self._host_excluded:
            return True
        if self.is_datacenter_excluded(self.topology.datacenter_of(host)):
            return True
        return stage_id is not None and (host, stage_id) in self._stage_excluded

    def is_datacenter_excluded(self, datacenter: str) -> bool:
        if not self.enabled:
            return False
        self._sweep()
        excluded = sum(
            1
            for host in self._host_excluded
            if self.topology.datacenter_of(host) == datacenter
        )
        return excluded >= self.config.datacenter_exclusion_threshold

    def next_expiry(self) -> Optional[float]:
        """The earliest pending app-wide exclusion expiry, if any."""
        self._sweep()
        if not self._host_excluded:
            return None
        return min(self._host_excluded.values())

    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        now = self.sim.now
        expired = [
            host
            for host, expiry in self._host_excluded.items()
            if expiry <= now
        ]
        for host in expired:
            del self._host_excluded[host]
            self.counters.blacklist_evictions += 1
        if expired:
            # Escalations may unwind once members return to service.
            for datacenter in list(self._escalated):
                count = sum(
                    1
                    for host in self._host_excluded
                    if self.topology.datacenter_of(host) == datacenter
                )
                if count < self.config.datacenter_exclusion_threshold:
                    self._escalated.discard(datacenter)

    def _check_escalation(self, datacenter: str) -> None:
        count = sum(
            1
            for host in self._host_excluded
            if self.topology.datacenter_of(host) == datacenter
        )
        if (
            count >= self.config.datacenter_exclusion_threshold
            and datacenter not in self._escalated
        ):
            self._escalated.add(datacenter)
            self.counters.datacenters_blacklisted += 1


@dataclass
class _Breaker:
    """State of one directed WAN pair's circuit breaker."""

    src_dc: str
    dst_dc: str
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    probes_in_flight: int = 0
    probe_successes: int = 0
    # EWMA of observed per-flow rates on this path (the capacity hint).
    rate_ewma: float = 0.0


class LinkHealthMonitor:
    """Per-WAN-pair circuit breakers with probe flows and rate hints.

    Keyed by the *directed* (src datacenter, dst datacenter) pair of a
    flow's endpoints.  ``record_failure`` (a flow deadline miss) trips
    the breaker after ``breaker_failure_threshold`` consecutive misses;
    while open, admission defers flows until ``breaker_cooldown``
    elapses, after which up to ``breaker_probe_flows`` concurrent probe
    flows are let through; ``breaker_probes_to_close`` probe successes
    close it again.  While open, the EWMA of the rates the cancelled
    flows actually achieved is fed to the fabric as a capacity hint on
    the pair's WAN link (cleared when the cooldown elapses, so probes
    measure the real path), modelling endpoint congestion control
    backing off harder than the fluid model alone.
    """

    _EWMA_ALPHA = 0.5

    def __init__(
        self,
        config: HealthConfig,
        counters: HealthCounters,
        topology: Topology,
        fabric: NetworkFabric,
        sim,
    ) -> None:
        self.config = config
        self.counters = counters
        self.topology = topology
        self.fabric = fabric
        self.sim = sim
        self._breakers: Dict[Tuple[str, str], _Breaker] = {}

    @property
    def enabled(self) -> bool:
        return self.config.breaker_enabled

    # ------------------------------------------------------------------
    def _breaker(self, src_dc: str, dst_dc: str) -> _Breaker:
        return self._breakers.setdefault(
            (src_dc, dst_dc), _Breaker(src_dc, dst_dc)
        )

    def _refresh(self, breaker: _Breaker) -> None:
        """Lazy open -> half-open transition once the cooldown elapsed."""
        if (
            breaker.state == OPEN
            and self.sim.now >= breaker.opened_at + self.config.breaker_cooldown
        ):
            breaker.state = HALF_OPEN
            breaker.probes_in_flight = 0
            breaker.probe_successes = 0
            # Probes must see the path's *real* capacity — the hint lives
            # only while the breaker is open, else it would make its own
            # probes miss their deadlines and re-open forever.
            self._set_hint(breaker.src_dc, breaker.dst_dc, None)

    def state(self, src_dc: str, dst_dc: str) -> str:
        breaker = self._breakers.get((src_dc, dst_dc))
        if breaker is None:
            return CLOSED
        self._refresh(breaker)
        return breaker.state

    def datacenter_quarantined(self, datacenter: str) -> bool:
        """True when any breaker *into* ``datacenter`` is open — the
        aggregation-destination health signal used at (re-)election."""
        if not self.enabled:
            return False
        return any(
            self.state(src, dst) == OPEN
            for (src, dst) in list(self._breakers)
            if dst == datacenter
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admission(self, src_dc: str, dst_dc: str) -> Tuple[str, float]:
        """May a flow ``src_dc -> dst_dc`` start now?

        Returns ``(verdict, wait)``: ``(ALLOW, 0)``, ``(PROBE, 0)`` —
        admitted as a half-open probe (already counted and reserved) —
        or ``(DEFER, seconds)`` with a suggested wait.
        """
        if not self.enabled or src_dc == dst_dc:
            return ALLOW, 0.0
        breaker = self._breakers.get((src_dc, dst_dc))
        if breaker is None:
            return ALLOW, 0.0
        self._refresh(breaker)
        if breaker.state == CLOSED:
            return ALLOW, 0.0
        if breaker.state == OPEN:
            wait = breaker.opened_at + self.config.breaker_cooldown - self.sim.now
            return DEFER, max(wait, 0.0)
        # Half-open: admit a bounded number of concurrent probes.
        if breaker.probes_in_flight < self.config.breaker_probe_flows:
            breaker.probes_in_flight += 1
            self.counters.breaker_probes += 1
            return PROBE, 0.0
        return DEFER, self.config.breaker_cooldown

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def record_failure(
        self,
        src_dc: str,
        dst_dc: str,
        probe: bool = False,
        observed_rate: float = 0.0,
    ) -> None:
        """A flow on the pair missed its deadline (was cancelled)."""
        if not self.enabled or src_dc == dst_dc:
            return
        breaker = self._breaker(src_dc, dst_dc)
        self._refresh(breaker)
        if observed_rate > 0:
            breaker.rate_ewma = (
                observed_rate
                if breaker.rate_ewma == 0
                else self._EWMA_ALPHA * observed_rate
                + (1 - self._EWMA_ALPHA) * breaker.rate_ewma
            )
        if probe:
            breaker.probes_in_flight = max(breaker.probes_in_flight - 1, 0)
        if breaker.state == HALF_OPEN or (
            breaker.state == CLOSED
            and breaker.consecutive_failures + 1
            >= self.config.breaker_failure_threshold
        ):
            self._trip(src_dc, dst_dc, breaker)
        elif breaker.state == CLOSED:
            breaker.consecutive_failures += 1

    def record_success(
        self,
        src_dc: str,
        dst_dc: str,
        probe: bool = False,
        observed_rate: float = 0.0,
    ) -> None:
        if not self.enabled or src_dc == dst_dc:
            return
        breaker = self._breakers.get((src_dc, dst_dc))
        if breaker is None:
            return
        self._refresh(breaker)
        if observed_rate > 0:
            breaker.rate_ewma = (
                self._EWMA_ALPHA * observed_rate
                + (1 - self._EWMA_ALPHA) * breaker.rate_ewma
            )
        if probe:
            breaker.probes_in_flight = max(breaker.probes_in_flight - 1, 0)
        if breaker.state == HALF_OPEN:
            breaker.probe_successes += 1
            if breaker.probe_successes >= self.config.breaker_probes_to_close:
                breaker.state = CLOSED
                breaker.consecutive_failures = 0
                self.counters.breaker_closes += 1
                self._set_hint(src_dc, dst_dc, None)
        else:
            breaker.consecutive_failures = 0

    # ------------------------------------------------------------------
    def _trip(self, src_dc: str, dst_dc: str, breaker: _Breaker) -> None:
        breaker.state = OPEN
        breaker.opened_at = self.sim.now
        breaker.consecutive_failures = 0
        breaker.probe_successes = 0
        self.counters.breaker_trips += 1
        if breaker.rate_ewma > 0:
            self._set_hint(src_dc, dst_dc, breaker.rate_ewma)

    def _set_hint(
        self, src_dc: str, dst_dc: str, rate: Optional[float]
    ) -> None:
        """Apply (or clear) the capacity hint on the pair's WAN link."""
        try:
            link = self.topology.wan_link(src_dc, dst_dc)
        except Exception:  # noqa: BLE001 - pair has no direct WAN link
            return
        if rate is None:
            self.fabric.clear_capacity_hint(link)
        else:
            self.fabric.set_capacity_hint(link, rate)


# ---------------------------------------------------------------------------
# Flow-level retry
# ---------------------------------------------------------------------------
@dataclass
class _RetryScope:
    """Per-call bookkeeping shared by the retry loop's helpers."""

    sources: List[str]
    deferrals: int = 0
    probe: bool = False
    issued: List[str] = field(default_factory=list)


def flow_deadline(context, src_host: str, dst_host: str, size_bytes: float) -> float:
    """The per-flow deadline: configured slack plus a multiple of the
    ideal transfer time at the route's *base* (undegraded) capacities —
    so fair-share contention within the multiplier passes, while a deep
    chaos degrade (factor far below ``1 / multiplier``) misses."""
    config = context.config.health
    route = context.topology.route(src_host, dst_host)
    latency = sum(link.latency for link in route)
    ideal = latency
    if route and size_bytes > 0:
        bottleneck = min(link.base_capacity for link in route)
        if bottleneck > 0:
            ideal += size_bytes / bottleneck
    return config.flow_deadline_base + config.flow_deadline_multiplier * ideal


def transfer_with_retry(
    context,
    sources: List[str],
    dst_host: str,
    size_bytes: float,
    tag: str,
    tenant: str = "",
    on_issue: Optional[Callable[[str], None]] = None,
    on_cancel: Optional[Callable[[str, float], None]] = None,
    check: Optional[Callable[[], None]] = None,
):
    """Deliver ``size_bytes`` to ``dst_host`` from one of ``sources``.

    A simulation sub-process (generator).  Each attempt races a flow
    against its deadline; a miss cancels the flow (the fabric records
    the bytes it actually delivered, see ``NetworkFabric.cancel``),
    waits an exponentially growing backoff, and re-issues — rotating
    over ``sources``, so a replica on a healthy path is tried before
    the sick one is retried.  After ``max_flow_retries`` misses the
    final flow runs without a deadline: slowness alone never fails a
    read.  ``check`` runs before every re-issue and should raise
    (``FetchFailedError``) when the data itself is gone — that is the
    escalation to lineage recovery.

    ``on_issue(src)`` / ``on_cancel(src, undelivered)`` let the caller
    keep its byte counters in lockstep with the traffic monitor: the
    caller accounts the full size per issued flow and refunds exactly
    the undelivered remainder per cancelled one.

    Returns the source host that completed the transfer.
    """
    config = context.config.health
    health = context.link_health
    counters = context.health
    sim = context.sim
    fabric = context.fabric
    topology = context.topology
    dst_dc = topology.datacenter_of(dst_host)
    scope = _RetryScope(sources=list(sources))
    attempt = 0
    while True:
        # Pick a source, preferring paths the breaker admits; rotation
        # starts at the attempt index so a retry naturally moves to the
        # next replica before revisiting the one that just missed.
        start = attempt % len(scope.sources)
        ordered = scope.sources[start:] + scope.sources[:start]
        chosen: Optional[str] = None
        scope.probe = False
        best_wait = None
        for candidate in ordered:
            verdict, wait = health.admission(
                topology.datacenter_of(candidate), dst_dc
            )
            if verdict == ALLOW:
                chosen = candidate
                break
            if verdict == PROBE:
                chosen = candidate
                scope.probe = True
                break
            best_wait = wait if best_wait is None else min(best_wait, wait)
        if chosen is None:
            # Every path is open-circuited.  Wait for the earliest
            # cooldown, bounded: a capped number of deferrals, then
            # force the flow through (progress beats protection).
            if scope.deferrals < config.max_flow_retries:
                scope.deferrals += 1
                yield sim.timeout(max(best_wait or 0.0, 1e-3))
                if check is not None:
                    check()
                continue
            chosen = ordered[0]
        src_dc = topology.datacenter_of(chosen)
        started = sim.now
        flow = fabric.transfer(
            chosen, dst_host, size_bytes, tag=tag, tenant=tenant
        )
        if on_issue is not None:
            on_issue(chosen)
        scope.issued.append(chosen)
        if attempt >= config.max_flow_retries:
            # Final attempt: no deadline.
            yield flow
            elapsed = max(sim.now - started, 1e-9)
            health.record_success(
                src_dc, dst_dc, probe=scope.probe,
                observed_rate=size_bytes / elapsed,
            )
            return chosen
        deadline = flow_deadline(context, chosen, dst_host, size_bytes)
        timer = sim.timeout(deadline, name=f"flow-deadline@{sim.now:.3f}")
        yield sim.any_of([flow, timer])
        if flow.triggered:
            elapsed = max(sim.now - started, 1e-9)
            health.record_success(
                src_dc, dst_dc, probe=scope.probe,
                observed_rate=size_bytes / elapsed,
            )
            return chosen
        # Deadline miss: cancel, refund, report, back off, re-issue.
        observed_rate = fabric.current_rate(flow)
        delivered = fabric.cancel(flow)
        if delivered is None:
            # The flow departed between the deadline firing and now
            # (only its propagation-latency tail remains): await it.
            yield flow
            elapsed = max(sim.now - started, 1e-9)
            health.record_success(
                src_dc, dst_dc, probe=scope.probe,
                observed_rate=size_bytes / elapsed,
            )
            return chosen
        if on_cancel is not None:
            on_cancel(chosen, size_bytes - delivered)
        counters.flow_retries += 1
        counters.retry_wasted_bytes += delivered
        health.record_failure(
            src_dc, dst_dc, probe=scope.probe, observed_rate=observed_rate
        )
        backoff = config.flow_retry_backoff * (2 ** attempt)
        if backoff > 0:
            yield sim.timeout(backoff)
        if check is not None:
            check()
        attempt += 1
