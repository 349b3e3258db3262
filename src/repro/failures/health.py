"""Health-aware degradation: blacklisting, circuit breakers, flow retry.

PR 3's recovery machinery handles every fault with the bluntest
instrument available — interrupt the attempt, resubmit the parent stage
from lineage.  This module adds the *graceful* middle of the failure
spectrum (the FuxiShuffle/Exoshuffle argument: recovery policy belongs
in the shuffle layer, layered below lineage):

* :class:`BlacklistTracker` — Spark-style excludeOnFailure.  Per-
  (executor, stage) and per-executor failure counts against the fixed
  thresholds below; an executor crossing the app-wide threshold is
  excluded for ``BLACKLIST_TIMEOUT`` simulated seconds, and a datacenter
  most of whose executors are excluded is escalated whole.  Consulted by
  :class:`~repro.scheduler.task_scheduler.TaskScheduler` at placement.
* :class:`LinkHealthMonitor` — a per-directed-WAN-pair circuit breaker
  (closed -> open -> half-open with probe flows) driven by flow
  deadline misses, feeding a reduced capacity *hint* (the EWMA of
  observed rates on the sick path) into the fair-share fabric while the
  breaker is open.  ``flow_retry_enabled`` arms it: flow retry's
  deadline misses are all it learns from.
* :func:`transfer_with_retry` — the one read path of the shuffle
  backends and the DFS input reader (:func:`read_flow` gives a reader's
  concurrent reads their events): with flow retry on, race each flow
  against a per-flow deadline, cancel and re-issue on a miss (possibly
  from another replica, honoring ``dfs_replication``), with exponential
  backoff.  The final attempt — the only one with retry off — runs
  without a deadline, so slowness alone never escalates; genuinely
  missing data raises ``FetchFailedError`` through the caller-supplied
  ``check`` hook.

Everything rides the deterministic simulation clock (all state
transitions are functions of ``sim.now``), and the bytes an abandoned
flow delivered land on the traffic monitor, under the caller's key,
when it is cancelled (see ``NetworkFabric.cancel``): the one record of
landed bytes stays exact under any chaos schedule with retries enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Set, Tuple

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

# excludeOnFailure thresholds (Spark's spark.excludeOnFailure.*): an
# executor's failed tasks of one stage before that (executor, stage)
# pair is excluded, its failed tasks across stages before it is
# excluded app-wide, how long that exclusion lasts, and how many
# excluded executors exclude their whole datacenter.
MAX_TASK_FAILURES_PER_EXECUTOR_STAGE = 2
MAX_TASK_FAILURES_PER_EXECUTOR = 4
BLACKLIST_TIMEOUT = 60.0
DATACENTER_EXCLUSION_THRESHOLD = 2

# Per-WAN-link circuit breaker (closed -> open -> half-open with probe
# flows): consecutive deadline misses that trip it, seconds it stays
# open, concurrent probe flows while half-open, and probe successes
# that close it again.
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_COOLDOWN = 10.0
BREAKER_PROBE_FLOWS = 1
BREAKER_PROBES_TO_CLOSE = 2


class BlacklistTracker:
    """excludeOnFailure: executor -> host -> datacenter escalation.

    One executor per host in this simulation, so the per-executor and
    per-host tiers coincide: repeated failures inside one stage exclude
    the (executor, stage) pair for that stage's lifetime; enough
    failures across stages exclude the executor app-wide until
    ``BLACKLIST_TIMEOUT`` elapses; and a datacenter with
    ``DATACENTER_EXCLUSION_THRESHOLD`` (or more) currently-excluded
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
            count >= MAX_TASK_FAILURES_PER_EXECUTOR_STAGE
            and key not in self._stage_excluded
        ):
            self._stage_excluded.add(key)
            self.counters.stage_exclusions += 1
        total = self._host_failures.get(host, 0) + 1
        self._host_failures[host] = total
        if (
            total >= MAX_TASK_FAILURES_PER_EXECUTOR
            and host not in self._host_excluded
        ):
            self._host_excluded[host] = self.sim.now + BLACKLIST_TIMEOUT
            self._host_failures[host] = 0  # a fresh window after expiry
            self.counters.hosts_blacklisted += 1
            self._check_escalation(self.topology.datacenter_of(host))

    def exclude_host(self, host: str) -> None:
        """Directly exclude ``host`` app-wide (operator-fed exclusion)."""
        if not self.enabled:
            return
        self._sweep()
        if host not in self._host_excluded:
            self._host_excluded[host] = self.sim.now + BLACKLIST_TIMEOUT
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
        return excluded >= DATACENTER_EXCLUSION_THRESHOLD

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
                if count < DATACENTER_EXCLUSION_THRESHOLD:
                    self._escalated.discard(datacenter)

    def _check_escalation(self, datacenter: str) -> None:
        count = sum(
            1
            for host in self._host_excluded
            if self.topology.datacenter_of(host) == datacenter
        )
        if (
            count >= DATACENTER_EXCLUSION_THRESHOLD
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
    the breaker after ``BREAKER_FAILURE_THRESHOLD`` consecutive misses;
    while open, admission defers flows until ``BREAKER_COOLDOWN``
    elapses, after which up to ``BREAKER_PROBE_FLOWS`` concurrent probe
    flows are let through; ``BREAKER_PROBES_TO_CLOSE`` probe successes
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
        return self.config.flow_retry_enabled

    # ------------------------------------------------------------------
    def _breaker(self, src_dc: str, dst_dc: str) -> _Breaker:
        return self._breakers.setdefault(
            (src_dc, dst_dc), _Breaker(src_dc, dst_dc)
        )

    def _refresh(self, breaker: _Breaker) -> None:
        """Lazy open -> half-open transition once the cooldown elapsed."""
        if (
            breaker.state == OPEN
            and self.sim.now >= breaker.opened_at + BREAKER_COOLDOWN
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
            wait = breaker.opened_at + BREAKER_COOLDOWN - self.sim.now
            return DEFER, max(wait, 0.0)
        # Half-open: admit a bounded number of concurrent probes.
        if breaker.probes_in_flight < BREAKER_PROBE_FLOWS:
            breaker.probes_in_flight += 1
            self.counters.breaker_probes += 1
            return PROBE, 0.0
        return DEFER, BREAKER_COOLDOWN

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
            >= BREAKER_FAILURE_THRESHOLD
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
            if breaker.probe_successes >= BREAKER_PROBES_TO_CLOSE:
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
    key: Optional[Hashable] = None,
    check: Optional[Callable[[], None]] = None,
):
    """Deliver ``size_bytes`` to ``dst_host`` from one of ``sources``.

    A simulation sub-process (generator).  With flow retry off it is one
    plain flow from ``sources[0]``.  With it on, each attempt races a
    flow against its deadline; a miss cancels the flow (the fabric
    records the bytes it actually delivered, see
    ``NetworkFabric.cancel``), waits an exponentially growing backoff,
    and re-issues — rotating over ``sources``, so a replica on a healthy
    path is tried before the sick one is retried.  After
    ``max_flow_retries`` misses the final flow runs without a deadline:
    slowness alone never fails a read.  ``check`` runs before every
    re-issue and should raise (``FetchFailedError``) when the data
    itself is gone — that is the escalation to lineage recovery.

    Every flow issued carries ``key`` (see ``NetworkFabric.transfer``),
    so the traffic monitor files exactly the bytes each attempt
    delivered under the caller's key.
    """
    config = context.config.health
    health = context.link_health
    counters = context.health
    sim = context.sim
    fabric = context.fabric
    topology = context.topology
    retries = config.max_flow_retries if health.enabled else 0
    dst_dc = topology.datacenter_of(dst_host)
    deferrals = 0
    attempt = 0
    while True:
        # Pick a source, preferring paths the breaker admits; rotation
        # starts at the attempt index so a retry naturally moves to the
        # next replica before revisiting the one that just missed.
        start = attempt % len(sources)
        ordered = sources[start:] + sources[:start]
        chosen: Optional[str] = None
        probe = False
        best_wait = None
        for candidate in ordered:
            verdict, wait = health.admission(
                topology.datacenter_of(candidate), dst_dc
            )
            if verdict != DEFER:
                chosen = candidate
                probe = verdict == PROBE
                break
            best_wait = wait if best_wait is None else min(best_wait, wait)
        if chosen is None:
            # Every path is open-circuited.  Wait for the earliest
            # cooldown, bounded: a capped number of deferrals, then
            # force the flow through (progress beats protection).
            if deferrals < config.max_flow_retries:
                deferrals += 1
                yield sim.timeout(max(best_wait or 0.0, 1e-3))
                if check is not None:
                    check()
                continue
            chosen = ordered[0]
        src_dc = topology.datacenter_of(chosen)
        started = sim.now
        flow = fabric.transfer(
            chosen, dst_host, size_bytes, tag=tag, tenant=tenant, key=key,
        )
        if attempt >= retries:
            # Final attempt: no deadline.
            yield flow
        else:
            deadline = flow_deadline(context, chosen, dst_host, size_bytes)
            timer = sim.timeout(deadline, name=f"flow-deadline@{sim.now:.3f}")
            yield sim.any_of([flow, timer])
            if not flow.triggered:
                # Deadline miss: cancel, report, back off, re-issue.
                observed_rate = fabric.current_rate(flow)
                delivered = fabric.cancel(flow)
                if delivered is not None:
                    counters.flow_retries += 1
                    counters.retry_wasted_bytes += delivered
                    health.record_failure(
                        src_dc, dst_dc, probe=probe,
                        observed_rate=observed_rate,
                    )
                    backoff = config.flow_retry_backoff * (2 ** attempt)
                    if backoff > 0:
                        yield sim.timeout(backoff)
                    if check is not None:
                        check()
                    attempt += 1
                    continue
                # The flow departed between the deadline firing and now
                # (only its propagation-latency tail remains): await it.
                yield flow
        elapsed = max(sim.now - started, 1e-9)
        health.record_success(
            src_dc, dst_dc, probe=probe, observed_rate=size_bytes / elapsed
        )
        return


def read_flow(
    context,
    src_host: str,
    dst_host: str,
    size_bytes: float,
    tag: str,
    tenant: str = "",
    key: Optional[Hashable] = None,
    check: Optional[Callable[[], None]] = None,
    name: str = "",
):
    """The event one of a reader's concurrent reads awaits: with flow
    retry off the plain flow :func:`transfer_with_retry` would issue,
    with it on that retry loop spawned as a process called ``name`` (a
    ``FetchFailedError`` it raises fails the reader's ``all_of`` like an
    inline raise)."""
    if not context.link_health.enabled:
        return context.fabric.transfer(
            src_host, dst_host, size_bytes, tag=tag, tenant=tenant, key=key,
        )
    return context.sim.spawn(
        transfer_with_retry(
            context, [src_host], dst_host, size_bytes, tag, tenant, key, check,
        ),
        name=name,
    )
