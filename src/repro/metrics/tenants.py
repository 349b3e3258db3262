"""Per-tenant accounting for multi-tenant job streams.

Two complementary pieces:

* :class:`TenantLedger` — byte attribution, charged by the fabric at
  flow *admission* and landed when the flow drains or is cancelled.
  Its landed totals equal the traffic monitor's completion-time
  ``by_tenant`` records bit for bit at every instant — the multi-tenant
  extension of the counter-vs-monitor byte-equality invariant
  (property-tested, including under chaos/retry cancels).
* :class:`TenantCounters` — job-stream outcomes: per-tenant job
  completion times (JCT p50/p95/p99 via :mod:`repro.metrics.stats`),
  makespan, and job counts, merged with the ledger into the per-tenant
  report surfaced in ``RunResult.tenants`` and the CLI.
"""

from __future__ import annotations

from collections import defaultdict
from math import fsum
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import add_exact, percentile


class TenantLedger:
    """Admission-time per-tenant byte accounting with cancel refunds.

    A charge is *in flight* from admission until the fabric lands it:
    at the flow's size when it drains, at the bytes actually delivered
    when it is cancelled — the float the traffic monitor records, at
    the moment it records it.  Landed bytes fold into per-tenant exact
    partials (:func:`~repro.metrics.stats.add_exact`), as the monitor's
    records do, so both sides hold the exact sum of the identical
    multiset of floats: ``fsum`` of either is bit-equal whatever order
    flows land in, a stage-boundary comparison costs O(tenants), and
    nothing is kept per landed flow.
    """

    def __init__(self) -> None:
        # flow key -> (tenant, charged bytes, crossed a WAN boundary)
        self._in_flight: Dict[int, Tuple[str, float, bool]] = {}
        # tenant -> exact partials of its landed bytes (all, and WAN
        # only); keyed at the tenant's first charge.
        self._landed: Dict[str, List[float]] = {}
        self._landed_wan: Dict[str, List[float]] = {}

    def account(
        self, tenant: str, flow_key: int, size_bytes: float, wan: bool = False
    ) -> None:
        """Charge ``size_bytes`` to ``tenant`` at flow admission."""
        self._in_flight[flow_key] = (tenant, size_bytes, wan)
        self._landed.setdefault(tenant, [])
        if wan:
            self._landed_wan.setdefault(tenant, [])

    def land(self, flow_key: int, delivered: float) -> None:
        """The flow stopped moving: ``delivered`` bytes crossed (its
        full size, or less when it was cancelled)."""
        tenant, _charged, wan = self._in_flight.pop(flow_key)
        add_exact(self._landed[tenant], delivered)
        if wan:
            add_exact(self._landed_wan[tenant], delivered)

    @property
    def bytes_by_tenant(self) -> Dict[str, float]:
        """Landed plus in-flight charges per tenant."""
        return self._with_in_flight(wan_only=False)

    @property
    def wan_bytes_by_tenant(self) -> Dict[str, float]:
        return self._with_in_flight(wan_only=True)

    def landed_by_tenant(self, wan_only: bool = False) -> Dict[str, float]:
        """Per-tenant totals of the landed charges only: what the
        traffic monitor has recorded."""
        partials = self._landed_wan if wan_only else self._landed
        return {tenant: fsum(terms) for tenant, terms in partials.items()}

    def _with_in_flight(self, wan_only: bool) -> Dict[str, float]:
        partials = self._landed_wan if wan_only else self._landed
        terms = {tenant: list(landed) for tenant, landed in partials.items()}
        for tenant, charged, wan in self._in_flight.values():
            if wan or not wan_only:
                terms[tenant].append(charged)
        return {tenant: fsum(values) for tenant, values in terms.items()}


class TenantCounters:
    """Per-tenant job-stream outcomes (JCT distribution, makespan)."""

    def __init__(self) -> None:
        self.submitted: Dict[str, int] = defaultdict(int)
        self.completed: Dict[str, int] = defaultdict(int)
        self.jct: Dict[str, List[float]] = defaultdict(list)
        self._first_arrival: Dict[str, float] = {}
        self._last_completion: Dict[str, float] = {}

    def note_submitted(self, tenant: str, at: float) -> None:
        self.submitted[tenant] += 1
        if tenant not in self._first_arrival or at < self._first_arrival[tenant]:
            self._first_arrival[tenant] = at

    def note_completed(
        self, tenant: str, submitted_at: float, finished_at: float
    ) -> None:
        self.completed[tenant] += 1
        self.jct[tenant].append(finished_at - submitted_at)
        last = self._last_completion.get(tenant)
        if last is None or finished_at > last:
            self._last_completion[tenant] = finished_at

    def makespan(self, tenant: str) -> float:
        """First arrival to last completion (0.0 before any completion)."""
        if tenant not in self._last_completion:
            return 0.0
        return self._last_completion[tenant] - self._first_arrival[tenant]

    def report(
        self, ledger: Optional[TenantLedger] = None
    ) -> Dict[str, Dict[str, float]]:
        """Flat per-tenant summary (the ``RunResult.tenants`` payload)."""
        tenants = set(self.submitted) | (
            set(ledger.bytes_by_tenant) if ledger is not None else set()
        )
        out: Dict[str, Dict[str, float]] = {}
        for tenant in sorted(tenants):
            durations = self.jct.get(tenant, [])
            row: Dict[str, float] = {
                "jobs_submitted": float(self.submitted.get(tenant, 0)),
                "jobs_completed": float(self.completed.get(tenant, 0)),
                "makespan_s": self.makespan(tenant),
            }
            if durations:
                row["jct_mean_s"] = sum(durations) / len(durations)
                row["jct_p50_s"] = percentile(durations, 50)
                row["jct_p95_s"] = percentile(durations, 95)
                row["jct_p99_s"] = percentile(durations, 99)
            if ledger is not None:
                row["bytes"] = ledger.bytes_by_tenant.get(tenant, 0.0)
                row["wan_bytes"] = ledger.wan_bytes_by_tenant.get(tenant, 0.0)
            out[tenant] = row
        return out
