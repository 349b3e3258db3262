"""Inter-datacenter bandwidth billing.

The paper's opening motivation is "the time and bandwidth *cost* for
moving data across datacenters".  Cloud providers bill inter-region
egress per gigabyte, so cross-datacenter bytes translate directly into
dollars; this module prices a run's traffic with EC2-style egress rates
and is used by the harness to report the monetary side of Fig. 8.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import fsum
from typing import Dict, List, Mapping, Tuple

from repro.network.traffic_monitor import TrafficMonitor

GB = 1_000_000_000.0

# Circa-2016 EC2 inter-region data-transfer prices ($/GB, source region
# egress).  Intra-region traffic is free.
DEFAULT_EGRESS_PRICES: Dict[str, float] = {
    "us-east-1": 0.02,
    "us-west-1": 0.02,
    "eu-central-1": 0.02,
    "ap-southeast-1": 0.09,
    "ap-southeast-2": 0.14,
    "sa-east-1": 0.16,
}
DEFAULT_PRICE = 0.05


@dataclass(frozen=True)
class PricingPolicy:
    """Per-source-datacenter egress prices in $/GB."""

    egress_per_gb: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EGRESS_PRICES)
    )
    default_per_gb: float = DEFAULT_PRICE

    def price(self, source_datacenter: str) -> float:
        return self.egress_per_gb.get(source_datacenter, self.default_per_gb)


@dataclass
class BillingReport:
    """Dollar cost of one run's cross-datacenter traffic."""

    total_dollars: float
    by_source: Dict[str, float]
    by_pair: Dict[Tuple[str, str], float]


def bill_traffic(
    monitor: TrafficMonitor, policy: PricingPolicy | None = None
) -> BillingReport:
    """Price every cross-datacenter flow the monitor recorded."""
    policy = policy if policy is not None else PricingPolicy()
    by_pair: Dict[Tuple[str, str], float] = {}
    source_terms: Dict[str, List[float]] = defaultdict(list)
    for (src, dst), size_bytes in monitor.by_pair.items():
        if src == dst:
            continue
        dollars = (size_bytes / GB) * policy.price(src)
        by_pair[(src, dst)] = dollars
        source_terms[src].append(dollars)
    # fsum over the gathered terms so totals do not depend on the order
    # pairs were recorded in (ACC001).
    return BillingReport(
        total_dollars=fsum(by_pair.values()),
        by_source={src: fsum(terms) for src, terms in source_terms.items()},
        by_pair=by_pair,
    )


@dataclass(frozen=True)
class BlobPricing:
    """Object-store request pricing (S3-style, per 1 000 requests).

    Egress bytes are already priced by :class:`PricingPolicy` from the
    traffic monitor; this adds the *request* dimension the BlobShuffle
    design point pays for — a PUT per published map output and a GET per
    map output read — so the ``blob`` backend's recovery story
    ("re-read dollars, not recomputation") is visible in run cost.
    """

    put_per_1k: float = 0.005
    get_per_1k: float = 0.0004

    def request_dollars(self, puts: int, gets: int) -> float:
        """Dollar cost of ``puts`` PUT and ``gets`` GET requests."""
        return (puts / 1000.0) * self.put_per_1k + (
            gets / 1000.0
        ) * self.get_per_1k


def blob_request_dollars(
    shuffle_perf: Mapping[str, float], pricing: BlobPricing | None = None
) -> float:
    """Request dollars for one run's shuffle-counter snapshot.

    Zero for every backend that issues no object-store requests, so the
    harness can add this unconditionally to the egress bill.
    """
    pricing = pricing if pricing is not None else BlobPricing()
    return pricing.request_dollars(
        int(shuffle_perf.get("blob_puts", 0)),
        int(shuffle_perf.get("blob_gets", 0)),
    )
