"""Runtime invariant sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).

The static rules catch convention violations the AST can see; this
module catches the dynamic ones — the same division of labour as a race
detector next to a linter.  When enabled, hooks in the fabric, kernel,
and DAG scheduler assert, *while the simulation runs*:

* **capacity conservation** — after every fair-share solve, the summed
  rates of the flows sharing each link stay within its (hinted)
  capacity plus ``1e-9`` relative slack;
* **sane rates** — no NaN, no negative, no infinite flow rate, and no
  negative ``remaining`` bytes;
* **time monotonicity** — the kernel's batch clock never goes backwards
  and never goes NaN;
* **ledger==monitor reconciliation** — at every stage boundary, the
  landed charges of the admission-time
  :class:`~repro.metrics.tenants.TenantLedger` equal the completion-time
  :class:`~repro.network.traffic_monitor.TrafficMonitor` records
  bit-for-bit, per tenant, for both total and WAN bytes, and the active
  shuffle backend's counters equal the monitor's records over its flow
  tags within the solver accuracy bound;
* **read-only shared records** — every hit of a dataset's
  :class:`~repro.rdd.memo.DataMemo` is recomputed from its arguments and
  compared with the stored partition (records, byte totals, count), so a
  step or user function that changes a shared record in place is caught
  by the next cell that reads it.

Checks never mutate simulation state, so a sanitized run is
byte-identical to an unsanitized one (asserted in CI).  Cost when off is
one attribute load + ``is None`` test per hook site: components capture
:func:`get_sanitizer` — ``None`` unless enabled — at construction.

Enable via the environment (``REPRO_SANITIZE=1``), the CLI
(``--sanitize``), or programmatically with the :func:`sanitized` context
manager (which installs a fresh :class:`Sanitizer` and hands it back so
tests can inspect its check counters).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from math import fsum
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.tenants import TenantLedger
    from repro.network.traffic_monitor import TrafficMonitor

# Relative slack for capacity conservation: the solvers guarantee 1e-9
# relative accuracy (the property-tested drive-equivalence bound), so
# the sanitizer allows exactly that.
_CAPACITY_SLACK = 1e-9

_ENV_FLAG = "REPRO_SANITIZE"
_TRUTHY = frozenset({"1", "true", "yes", "on"})


class InvariantViolation(AssertionError):
    """A runtime invariant the simulation must uphold was broken."""


class Sanitizer:
    """Stateless invariant checks plus per-invariant check counters."""

    __slots__ = ("checks",)

    def __init__(self) -> None:
        # invariant name -> number of times it was checked (not failed);
        # tests assert these move so a silently-dead hook cannot pass.
        self.checks: Dict[str, int] = {
            "rates": 0,
            "capacity": 0,
            "time": 0,
            "ledger": 0,
            "counters": 0,
            "memo": 0,
        }

    # ------------------------------------------------------------------
    # Fabric: rates and capacity conservation
    # ------------------------------------------------------------------
    def check_rates(
        self,
        rates: Mapping[int, float],
        routes: Mapping[int, Sequence[str]],
        capacities: Mapping[str, float],
    ) -> None:
        """Validate one solve: finite non-negative rates, per-link sums
        within capacity (plus 1e-9 relative slack)."""
        self.checks["rates"] += 1
        for flow_id, rate in rates.items():
            if math.isnan(rate):
                raise InvariantViolation(f"flow {flow_id}: NaN rate")
            if rate < 0:
                raise InvariantViolation(
                    f"flow {flow_id}: negative rate {rate!r}"
                )
            if math.isinf(rate):
                raise InvariantViolation(
                    f"flow {flow_id}: infinite rate"
                )
        self.checks["capacity"] += 1
        loads: Dict[str, float] = {}
        for flow_id, route in routes.items():
            rate = rates.get(flow_id, 0.0)
            for link_name in route:
                loads[link_name] = loads.get(link_name, 0.0) + rate
        for link_name, load in loads.items():
            capacity = capacities.get(link_name)
            if capacity is None or math.isinf(capacity):
                continue
            limit = capacity * (1.0 + _CAPACITY_SLACK) + _CAPACITY_SLACK
            if load > limit:
                raise InvariantViolation(
                    f"link {link_name}: flow rates sum to {load!r} "
                    f"> capacity {capacity!r} (+1e-9 slack)"
                )

    def check_remaining(self, flow_id: int, remaining: float) -> None:
        """A flow's outstanding bytes must stay finite and non-negative."""
        self.checks["rates"] += 1
        if math.isnan(remaining) or remaining < 0 or math.isinf(remaining):
            raise InvariantViolation(
                f"flow {flow_id}: invalid remaining bytes {remaining!r}"
            )

    # ------------------------------------------------------------------
    # Kernel: time monotonicity
    # ------------------------------------------------------------------
    def check_time(self, now: float, batch_time: float) -> None:
        """The agenda clock must advance monotonically and stay a number.

        ``now`` is the previous batch's time, so ``batch_time >= now``
        is the full per-simulator monotonicity invariant (one sanitizer
        may serve several sequential Simulators; each carries its own
        clock).
        """
        self.checks["time"] += 1
        if math.isnan(batch_time):
            raise InvariantViolation("agenda produced a NaN timestamp")
        if batch_time < now:
            raise InvariantViolation(
                f"time went backwards: batch at {batch_time!r} < now {now!r}"
            )

    # ------------------------------------------------------------------
    # Ledger: admission charges == completion records, bit for bit
    # ------------------------------------------------------------------
    def check_ledger(self, ledger: TenantLedger, monitor: TrafficMonitor) -> None:
        """Landed ledger charges must equal monitor records exactly —
        the stage-boundary version of the end-of-run property test."""
        self.checks["ledger"] += 1
        mismatches = _ledger_mismatches(ledger, monitor)
        if mismatches:
            raise InvariantViolation(f"{mismatches[0]} at stage boundary")

    def check_counters(self, backend, monitor: TrafficMonitor) -> None:
        """The backend's counters must equal the monitor's records over
        its flow tags (within the solver accuracy bound) — the
        stage-boundary version of :func:`reconcile_run`'s counter
        comparisons."""
        self.checks["counters"] += 1
        mismatches = _counter_mismatches(backend, monitor)
        if mismatches:
            raise InvariantViolation(f"{mismatches[0]} at stage boundary")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Check counters (for the CLI's sanitize report)."""
        return {name: float(count) for name, count in self.checks.items()}


# ---------------------------------------------------------------------------
# Reconciliation: stage-boundary checks and the post-run oracle
# ---------------------------------------------------------------------------

# Counter-vs-monitor comparisons use the solvers' accuracy bound (the
# same slack the end-of-run property tests use); ledger-vs-monitor is
# bit-exact because both sides hold the identical multiset of floats.
_RECONCILE_REL = 1e-9
_RECONCILE_ABS = 1e-6


def _mismatch(lhs: float, rhs: float) -> bool:
    return abs(lhs - rhs) > _RECONCILE_REL * max(abs(lhs), abs(rhs)) + _RECONCILE_ABS


def _ledger_mismatches(ledger: TenantLedger, monitor: TrafficMonitor) -> List[str]:
    """Every tenant whose landed ledger charges differ from the monitor's
    records, total or WAN.  Both sides hold the exact sum of the same
    floats, so any difference at all is one."""
    found: List[str] = []
    for what, landed, recorded in (
        ("bytes", ledger.landed_by_tenant(), monitor.by_tenant),
        (
            "WAN bytes",
            ledger.landed_by_tenant(wan_only=True),
            monitor.cross_dc_by_tenant,
        ),
    ):
        for tenant in sorted(set(landed) | set(recorded)):
            lhs = landed.get(tenant, 0.0)
            rhs = recorded.get(tenant, 0.0)
            if lhs != rhs:
                found.append(
                    f"tenant {tenant!r}: ledger landed {what} {lhs!r} != "
                    f"monitor recorded {what} {rhs!r}"
                )
    return found


def _counter_mismatches(backend, monitor: TrafficMonitor) -> List[str]:
    """Every way the backend's counters differ from the monitor's
    records over the backend's declared flow tags — total, cross-DC and
    per-shuffle attribution — beyond the solver accuracy bound.  Both
    sides take a flow's bytes at the instant it lands, so this holds at
    any instant, flows still in flight included (they are on neither)."""
    counters = backend.counters

    def tag_total(table: Mapping[str, float], tags: Sequence[str]) -> float:
        return fsum(table.get(tag, 0.0) for tag in tags)

    found: List[str] = []
    total = tag_total(monitor.by_tag, backend.flow_tags)
    if _mismatch(counters.network_bytes, total):
        found.append(
            f"counters: wan+intra {counters.network_bytes!r} != "
            f"monitor total {total!r}"
        )
    cross = tag_total(monitor.cross_dc_by_tag, backend.flow_tags)
    if _mismatch(counters.wan_bytes, cross):
        found.append(
            f"counters: wan_bytes {counters.wan_bytes!r} != "
            f"monitor cross-DC total {cross!r}"
        )
    shuffle_tags = tuple(tag for tag in backend.flow_tags if tag != "transfer_to")
    by_shuffle = fsum(counters.network_bytes_by_shuffle.values())
    shuffle_total = tag_total(monitor.by_tag, shuffle_tags)
    if _mismatch(by_shuffle, shuffle_total):
        found.append(
            f"counters: per-shuffle attribution {by_shuffle!r} != "
            f"monitor shuffle-path total {shuffle_total!r}"
        )
    return found


def reconcile_run(context) -> List[str]:
    """Cross-check one finished run's three accounting spines.

    The chaos campaign's composite-oracle adapter: given a cluster
    context whose jobs have completed, verify

    * backend **counters** == traffic **monitor** over the backend's
      declared flow tags (total, cross-DC, and per-shuffle attribution),
      within the solver accuracy bound — the comparisons
      :meth:`Sanitizer.check_counters` makes at every stage boundary;
    * tenant **ledger** landed charges == monitor completion records,
      bit for bit per tenant, for total and WAN bytes.

    All three take a flow's bytes when it lands, so a flow still in
    flight when the run stopped (an abandoned attempt whose awaiting
    process died — a speculative loser's fetch, a relaunched task's
    half-finished read) is on no side.

    Returns a list of human-readable violation strings — empty means the
    run reconciles.  Never raises: the campaign wants every violation,
    not the first one.
    """
    monitor = context.traffic
    return _counter_mismatches(
        context.shuffle_service, monitor
    ) + _ledger_mismatches(context.fabric.tenant_ledger, monitor)


# ---------------------------------------------------------------------------
# Process-wide enablement
# ---------------------------------------------------------------------------

# The installed sanitizer, or None when off.  Components capture
# get_sanitizer() once at construction, so toggling mid-simulation is
# deliberately unsupported — enable before building the cluster.
_INSTALLED: Optional[Sanitizer] = None
_ENV_CHECKED = False


def _env_enabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in _TRUTHY


def get_sanitizer() -> Optional[Sanitizer]:
    """The active sanitizer, or ``None`` (the common, zero-cost case).

    The environment flag is honoured lazily on first call, so spawned
    benchmark/matrix workers inherit ``REPRO_SANITIZE`` naturally.
    """
    global _INSTALLED, _ENV_CHECKED
    if _INSTALLED is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        if _env_enabled():
            _INSTALLED = Sanitizer()
    return _INSTALLED


def enable() -> Sanitizer:
    """Install (or return the already-installed) process-wide sanitizer."""
    global _INSTALLED
    if _INSTALLED is None:
        _INSTALLED = Sanitizer()
    return _INSTALLED


def disable() -> None:
    """Remove the process-wide sanitizer (existing components keep the
    instance they captured; new components come up unsanitized)."""
    global _INSTALLED, _ENV_CHECKED
    _INSTALLED = None
    # Re-arm the env check so a later get_sanitizer() re-reads the flag.
    _ENV_CHECKED = False


@contextmanager
def sanitized():
    """Context manager installing a fresh sanitizer for its scope.

    Yields the :class:`Sanitizer` so tests can assert its check
    counters actually moved.
    """
    global _INSTALLED, _ENV_CHECKED
    previous, previous_checked = _INSTALLED, _ENV_CHECKED
    _INSTALLED, _ENV_CHECKED = Sanitizer(), True
    try:
        yield _INSTALLED
    finally:
        _INSTALLED, _ENV_CHECKED = previous, previous_checked
