"""Topology construction, including the paper's EC2 deployment (Fig. 6).

The evaluation cluster: six regions — N. Virginia, N. California,
São Paulo, Frankfurt, Singapore, Sydney — four ``m3.large`` workers each,
plus the Spark master and HDFS namenode on two dedicated N. Virginia
instances.  Intra-region bandwidth is about 1 Gbps per instance pair;
inter-region capacity fluctuates between roughly 80 and 300 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.network.topology import GBPS, MBPS, Topology

# Region names as in Fig. 6.
EC2_REGIONS = (
    "us-east-1",      # N. Virginia (master + namenode here)
    "us-west-1",      # N. California
    "sa-east-1",      # São Paulo
    "eu-central-1",   # Frankfurt
    "ap-southeast-1", # Singapore
    "ap-southeast-2", # Sydney
)

# Representative one-way propagation delays between regions (seconds),
# from public inter-region RTT measurements (half of typical RTT).
_DEFAULT_WAN_LATENCY = 0.08
_WAN_LATENCY: Dict[Tuple[str, str], float] = {
    ("us-east-1", "us-west-1"): 0.031,
    ("us-east-1", "sa-east-1"): 0.060,
    ("us-east-1", "eu-central-1"): 0.045,
    ("us-east-1", "ap-southeast-1"): 0.110,
    ("us-east-1", "ap-southeast-2"): 0.100,
    ("us-west-1", "sa-east-1"): 0.095,
    ("us-west-1", "eu-central-1"): 0.073,
    ("us-west-1", "ap-southeast-1"): 0.088,
    ("us-west-1", "ap-southeast-2"): 0.070,
    ("sa-east-1", "eu-central-1"): 0.105,
    ("sa-east-1", "ap-southeast-1"): 0.175,
    ("sa-east-1", "ap-southeast-2"): 0.160,
    ("eu-central-1", "ap-southeast-1"): 0.085,
    ("eu-central-1", "ap-southeast-2"): 0.145,
    ("ap-southeast-1", "ap-southeast-2"): 0.048,
}


def _wan_latency(src: str, dst: str) -> float:
    return _WAN_LATENCY.get(
        (src, dst), _WAN_LATENCY.get((dst, src), _DEFAULT_WAN_LATENCY)
    )


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of a simulated cluster."""

    datacenters: Tuple[str, ...]
    workers_per_datacenter: int = 4
    intra_dc_bandwidth: float = 1.0 * GBPS
    # Baseline WAN capacity; the jitter process perturbs it within the
    # configured [low, high] band at run time.
    inter_dc_bandwidth: float = 200 * MBPS
    # Shared per-region WAN border capacity (None disables gateways).
    gateway_bandwidth: Optional[float] = 150 * MBPS
    driver_datacenter: Optional[str] = None
    wan_latencies: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def validate(self) -> None:
        if len(self.datacenters) < 1:
            raise ConfigurationError("need at least one datacenter")
        if len(set(self.datacenters)) != len(self.datacenters):
            raise ConfigurationError("duplicate datacenter names")
        if self.workers_per_datacenter < 1:
            raise ConfigurationError("workers_per_datacenter must be >= 1")
        if self.driver_datacenter is not None and (
            self.driver_datacenter not in self.datacenters
        ):
            raise ConfigurationError(
                f"driver datacenter {self.driver_datacenter!r} unknown"
            )

    @property
    def resolved_driver_datacenter(self) -> str:
        return self.driver_datacenter or self.datacenters[0]

    def worker_names(self) -> List[str]:
        return [
            f"{dc}-w{index}"
            for dc in self.datacenters
            for index in range(self.workers_per_datacenter)
        ]

    @property
    def driver_host_name(self) -> str:
        return f"{self.resolved_driver_datacenter}-driver"


def ec2_six_region_spec(workers_per_datacenter: int = 4) -> ClusterSpec:
    """The Fig. 6 deployment: six EC2 regions, four workers each,
    master in N. Virginia."""
    return ClusterSpec(
        datacenters=EC2_REGIONS,
        workers_per_datacenter=workers_per_datacenter,
        driver_datacenter="us-east-1",
        wan_latencies=dict(_WAN_LATENCY),
    )


def build_topology(spec: ClusterSpec) -> Topology:
    """Materialise a :class:`Topology` from a spec.

    Adds one non-worker *driver* host in the driver datacenter (the
    dedicated master instance of the paper's deployment).
    """
    spec.validate()
    topology = Topology()
    for datacenter in spec.datacenters:
        topology.add_datacenter(datacenter)
        for index in range(spec.workers_per_datacenter):
            topology.add_host(
                f"{datacenter}-w{index}",
                datacenter,
                access_bandwidth=spec.intra_dc_bandwidth,
            )
    topology.add_host(
        spec.driver_host_name,
        spec.resolved_driver_datacenter,
        access_bandwidth=spec.intra_dc_bandwidth,
    )
    names = list(spec.datacenters)
    for i, src in enumerate(names):
        for dst in names[i + 1:]:
            latency = spec.wan_latencies.get(
                (src, dst),
                spec.wan_latencies.get((dst, src), _wan_latency(src, dst)),
            )
            topology.connect_datacenters(
                src, dst, spec.inter_dc_bandwidth, latency=latency
            )
    if spec.gateway_bandwidth is not None and len(spec.datacenters) > 1:
        for datacenter in spec.datacenters:
            topology.set_gateway(datacenter, spec.gateway_bandwidth)
    topology.validate()
    return topology


def two_datacenter_spec(
    workers_per_datacenter: int = 2,
    inter_dc_bandwidth: float = 100 * MBPS,
) -> ClusterSpec:
    """A minimal two-DC cluster, as the quickstart example uses."""
    return ClusterSpec(
        datacenters=("dc-a", "dc-b"),
        workers_per_datacenter=workers_per_datacenter,
        inter_dc_bandwidth=inter_dc_bandwidth,
        driver_datacenter="dc-a",
    )
