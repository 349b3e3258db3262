"""Traffic accounting, most importantly cross-datacenter bytes (Fig. 8).

The monitor is deliberately passive: the fabric reports every finished
flow, and the monitor aggregates by datacenter pair and by caller-supplied
tag (e.g. ``"shuffle"``, ``"transfer_to"``, ``"input"``).
"""

from __future__ import annotations

from collections import defaultdict
from math import fsum
from typing import Dict, List, Tuple

from repro.metrics.stats import add_exact

MB = 1_000_000.0


class TrafficMonitor:
    """Aggregates transferred bytes by datacenter pair and by tag."""

    def __init__(self) -> None:
        self.total_bytes = 0.0
        self.cross_dc_bytes = 0.0
        self.by_pair: Dict[Tuple[str, str], float] = defaultdict(float)
        self.by_tag: Dict[str, float] = defaultdict(float)
        self.cross_dc_by_tag: Dict[str, float] = defaultdict(float)
        # Per-tenant records are exact partials (add_exact), reduced
        # with math.fsum on read: accumulation-order-free, so they
        # reconcile bit-for-bit with the TenantLedger's landed charges
        # (the identical multiset, folded the same way).  Untenanted
        # runs never touch these.
        self._tenant_partials: Dict[str, List[float]] = defaultdict(list)
        self._tenant_wan_partials: Dict[str, List[float]] = defaultdict(list)
        self.flow_count = 0

    def record(
        self,
        src_dc: str,
        dst_dc: str,
        size_bytes: float,
        tag: str = "",
        tenant: str = "",
    ) -> None:
        """Account one finished flow (``tenant`` attributes multi-tenant
        traffic; untenanted flows leave the tenant matrices alone)."""
        self.flow_count += 1
        self.total_bytes += size_bytes
        self.by_pair[(src_dc, dst_dc)] += size_bytes
        if tag:
            self.by_tag[tag] += size_bytes
        if tenant:
            add_exact(self._tenant_partials[tenant], size_bytes)
        if src_dc != dst_dc:
            self.cross_dc_bytes += size_bytes
            if tag:
                self.cross_dc_by_tag[tag] += size_bytes
            if tenant:
                add_exact(self._tenant_wan_partials[tenant], size_bytes)

    @property
    def by_tenant(self) -> Dict[str, float]:
        """Delivered bytes per tenant (exact, order-independent sum)."""
        return {
            tenant: fsum(partials)
            for tenant, partials in self._tenant_partials.items()
        }

    @property
    def cross_dc_by_tenant(self) -> Dict[str, float]:
        """Cross-datacenter delivered bytes per tenant."""
        return {
            tenant: fsum(partials)
            for tenant, partials in self._tenant_wan_partials.items()
        }

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def cross_dc_megabytes(self) -> float:
        return self.cross_dc_bytes / MB
