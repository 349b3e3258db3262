"""Per-tenant accounting for multi-tenant job streams.

:class:`TenantCounters` records job-stream outcomes: per-tenant job
completion times (JCT p50/p95/p99 via :mod:`repro.metrics.stats`),
makespan, and job counts.  Its report reads each tenant's bytes from the
traffic monitor, the one record of landed bytes, and is surfaced in
``RunResult.tenants`` and the CLI.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List

from repro.metrics.stats import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.traffic_monitor import TrafficMonitor


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

    def report(self, monitor: TrafficMonitor) -> Dict[str, Dict[str, float]]:
        """Flat per-tenant summary (the ``RunResult.tenants`` payload),
        each tenant's landed ``bytes`` and ``wan_bytes`` read from
        ``monitor``."""
        landed = monitor.by_tenant
        landed_wan = monitor.cross_dc_by_tenant
        out: Dict[str, Dict[str, float]] = {}
        for tenant in sorted(set(self.submitted) | set(landed)):
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
            row["bytes"] = landed.get(tenant, 0.0)
            row["wan_bytes"] = landed_wan.get(tenant, 0.0)
            out[tenant] = row
        return out
