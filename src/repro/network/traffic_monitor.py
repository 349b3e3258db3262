"""Traffic accounting, most importantly cross-datacenter bytes (Fig. 8).

The monitor is deliberately passive: the fabric reports every byte a
flow delivered, once, when the flow lands (its full size when it
finishes, the delivered part when it is cancelled), and the monitor
aggregates by datacenter pair, by caller-supplied tag (e.g.
``"shuffle"``, ``"transfer_to"``, ``"input"``), by tenant and by the
flow's opaque key.  It is the one record of landed bytes: the shuffle
backend's byte counters and the per-tenant byte report are views of it.
"""

from __future__ import annotations

from collections import defaultdict
from math import fsum
from typing import Dict, Hashable, List, Optional, Tuple

from repro.metrics.stats import add_exact

MB = 1_000_000.0


class TrafficMonitor:
    """Aggregates landed bytes by datacenter pair, tag, tenant and key."""

    def __init__(self) -> None:
        self.total_bytes = 0.0
        self.cross_dc_bytes = 0.0
        self.by_pair: Dict[Tuple[str, str], float] = defaultdict(float)
        self.by_tag: Dict[str, float] = defaultdict(float)
        self.cross_dc_by_tag: Dict[str, float] = defaultdict(float)
        # (tag, key, crossed a datacenter boundary) -> landed bytes, for
        # the flows issued with a key (the shuffle backends' moves, keyed
        # by shuffle and recovery; see ShuffleCounters).
        self.by_key: Dict[Tuple[str, Hashable, bool], float] = defaultdict(float)
        # Per-tenant records are exact partials (add_exact), reduced
        # with math.fsum on read: accumulation-order-free, so a tenant's
        # bytes do not depend on the order its flows landed in.
        # Untenanted runs never touch these.
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
        key: Optional[Hashable] = None,
    ) -> None:
        """Account the bytes one flow delivered (``tenant`` attributes
        multi-tenant traffic, ``key`` files it in :attr:`by_key`;
        untenanted and unkeyed flows leave those tables alone)."""
        crossed = src_dc != dst_dc
        self.flow_count += 1
        self.total_bytes += size_bytes
        self.by_pair[(src_dc, dst_dc)] += size_bytes
        if tag:
            self.by_tag[tag] += size_bytes
        if key is not None:
            self.by_key[(tag, key, crossed)] += size_bytes
        if tenant:
            add_exact(self._tenant_partials[tenant], size_bytes)
        if crossed:
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
