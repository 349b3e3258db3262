"""Input block placement across datacenters.

HDFS concentrates replicas near the writing client; the HiBench data
generators run from the master region, so raw input lands *skewed
toward the driver's datacenter* while still spreading over every region
(raw data "generated at geographically distributed datacenters").  The
placement below reproduces that: each block picks a datacenter by
weight (``DEFAULT_HOT_WEIGHT`` for the hot datacenter, 1 for each
other) and a round-robin host within it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.builder import ClusterSpec
from repro.simulation.random_source import RandomSource

DEFAULT_HOT_WEIGHT = 8.0


def skewed_block_placement(
    spec: ClusterSpec,
    randomness: RandomSource,
    num_blocks: int,
    hot_datacenter: Optional[str] = None,
) -> List[str]:
    """One host per block, weighted toward ``hot_datacenter``."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    hot = hot_datacenter or spec.resolved_driver_datacenter
    datacenters = list(spec.datacenters)
    weights = [DEFAULT_HOT_WEIGHT if dc == hot else 1.0 for dc in datacenters]
    total = sum(weights)
    cumulative: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)

    stream = randomness.stream("placement")
    next_host_index: Dict[str, int] = {dc: 0 for dc in datacenters}
    hosts: List[str] = []
    for _block in range(num_blocks):
        draw = stream.random()
        chosen = datacenters[-1]
        for dc, boundary in zip(datacenters, cumulative):
            if draw <= boundary:
                chosen = dc
                break
        index = next_host_index[chosen]
        next_host_index[chosen] = (index + 1) % spec.workers_per_datacenter
        hosts.append(f"{chosen}-w{index}")
    return hosts

