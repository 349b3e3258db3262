"""Per-tenant accounting for multi-tenant job streams.

Two complementary pieces:

* :class:`TenantLedger` — byte attribution, charged by the fabric at
  flow *admission* and refunded when a flow is cancelled before
  draining.  Once every flow has landed, the ledger's per-tenant totals
  must reconcile exactly with the traffic monitor's completion-time
  ``by_tenant`` records — the multi-tenant extension of the
  counter-vs-monitor byte-equality invariant (property-tested,
  including under chaos/retry refunds).
* :class:`TenantCounters` — job-stream outcomes: per-tenant job
  completion times (JCT p50/p95/p99 via :mod:`repro.metrics.stats`),
  makespan, and job counts, merged with the ledger into the per-tenant
  report surfaced in ``RunResult.tenants`` and the CLI.
"""

from __future__ import annotations

from collections import defaultdict
from math import fsum
from typing import Collection, Dict, List, Optional

from repro.metrics.stats import percentile


class TenantLedger:
    """Admission-time per-tenant byte accounting with cancel refunds.

    Charges are kept **per flow** and totals reduced with
    :func:`math.fsum`, so they are independent of accumulation order:
    the ledger charges at admission while the traffic monitor records at
    completion, and a running float sum would drift by an ulp whenever
    overlapping flows land in a different order than they were admitted.
    With per-flow entries both sides sum the identical multiset of
    values — a cancelled flow's refund *replaces* its admission charge
    with the bytes actually delivered — so reconciliation is exact, not
    merely close.
    """

    def __init__(self) -> None:
        # flow key -> (tenant, charged bytes, crossed a WAN boundary)
        self._charges: Dict[int, tuple] = {}

    def account(
        self, tenant: str, flow_key: int, size_bytes: float, wan: bool = False
    ) -> None:
        """Charge ``size_bytes`` to ``tenant`` at flow admission."""
        self._charges[flow_key] = (tenant, size_bytes, wan)

    def settle(self, flow_key: int, delivered: float) -> None:
        """A cancelled flow's refund: keep only what actually crossed.

        The charge becomes the *same float* the traffic monitor records
        for the cancelled flow, keeping the two multisets identical.
        """
        entry = self._charges.get(flow_key)
        if entry is None:
            return
        tenant, _charged, wan = entry
        self._charges[flow_key] = (tenant, delivered, wan)

    @property
    def bytes_by_tenant(self) -> Dict[str, float]:
        return self._reduce(wan_only=False)

    @property
    def wan_bytes_by_tenant(self) -> Dict[str, float]:
        return self._reduce(wan_only=True)

    def settled_by_tenant(
        self, exclude: Collection[int] = (), wan_only: bool = False
    ) -> Dict[str, float]:
        """Per-tenant totals over the *landed* charges only.

        ``exclude`` names the still-in-flight flow keys: their admission
        charges have no traffic-monitor record yet.  What remains is the
        identical multiset of floats the monitor holds, so the runtime
        sanitizer compares the two fsum reductions for exact equality at
        stage boundaries.
        """
        excluded = set(exclude)
        grouped: Dict[str, List[float]] = defaultdict(list)
        for flow_key, (tenant, charged, wan) in self._charges.items():
            if flow_key in excluded or (wan_only and not wan):
                continue
            grouped[tenant].append(charged)
        return {tenant: fsum(values) for tenant, values in grouped.items()}

    def _reduce(self, wan_only: bool) -> Dict[str, float]:
        grouped: Dict[str, List[float]] = defaultdict(list)
        for tenant, charged, wan in self._charges.values():
            if wan_only and not wan:
                continue
            grouped[tenant].append(charged)
        return {tenant: fsum(values) for tenant, values in grouped.items()}

    @property
    def total_bytes(self) -> float:
        return fsum(self.bytes_by_tenant.values())


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
