"""An Iridium-style input-redistribution baseline (extension).

Iridium (Pu et al., SIGCOMM 2015 — discussed in the paper's §VI)
improves wide-area jobs by *redistributing the input dataset* across
sites in proportion to their available WAN bandwidth before computation,
so no single site's uplink becomes the shuffle bottleneck.  The paper
positions Push/Aggregate as orthogonal to such input/task placement
work; this module provides a simplified Iridium-like scheme so the two
philosophies can be compared on the same workloads:

* compute a bandwidth score per datacenter (the bottleneck of its WAN
  gateway and the sum of its pair links);
* move input blocks so each datacenter holds a share of the input
  proportional to its score (lazily: only blocks that must move, cheapest
  donor first);
* run the job with the stock fetch-based shuffle.

On a homogeneous deployment (like Fig. 6) the scores are equal and the
scheme degenerates to uniform redistribution — which is exactly
Iridium's answer there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.context import ClusterContext
from repro.experiments.centralize import move_blocks


def datacenter_bandwidth_scores(context: ClusterContext) -> Dict[str, float]:
    """A datacenter's capacity to serve shuffle traffic outward."""
    topology = context.topology
    scores: Dict[str, float] = {}
    for name, datacenter in topology.datacenters.items():
        pair_total = sum(
            link.capacity
            for link in topology.wan_links()
            if link.name.startswith(f"wan:{name}->")
        )
        if datacenter.wan_out is not None:
            score = min(datacenter.wan_out.capacity, pair_total)
        else:
            score = pair_total
        scores[name] = score
    return scores


def plan_redistribution(
    context: ClusterContext, path: str
) -> List[Tuple[str, str]]:
    """(block id, destination host) moves to reach proportional shares."""
    dfs = context.dfs
    topology = context.topology
    scores = datacenter_bandwidth_scores(context)
    total_score = sum(scores.values()) or 1.0

    blocks = [dfs.read_block(block_id) for block_id in dfs.file_blocks(path)]
    sizes = {block.block_id: block.size_bytes for block in blocks}
    total_bytes = sum(sizes.values())

    held: Dict[str, float] = {name: 0.0 for name in scores}
    blocks_by_dc: Dict[str, List[str]] = {name: [] for name in scores}
    for block in blocks:
        dc = topology.datacenter_of(block.hosts[0])
        held[dc] += block.size_bytes
        blocks_by_dc[dc].append(block.block_id)

    targets = {
        name: total_bytes * scores[name] / total_score for name in scores
    }
    moves: List[Tuple[str, str]] = []
    next_worker: Dict[str, int] = {name: 0 for name in scores}
    # Donors: over-target datacenters give their largest surplus first.
    for donor in sorted(scores, key=lambda n: held[n] - targets[n], reverse=True):
        surplus = held[donor] - targets[donor]
        if surplus <= 0:
            continue
        for block_id in list(blocks_by_dc[donor]):
            if surplus <= 0:
                break
            recipient = min(scores, key=lambda n: held[n] - targets[n])
            if held[recipient] >= targets[recipient]:
                break
            workers = context.workers_in(recipient)
            target_host = workers[next_worker[recipient] % len(workers)]
            next_worker[recipient] += 1
            moves.append((block_id, target_host))
            size = sizes[block_id]
            held[donor] -= size
            held[recipient] += size
            surplus -= size
            blocks_by_dc[donor].remove(block_id)
    return moves


def iridium_redistribute(context: ClusterContext, path: str) -> float:
    """Execute the planned input moves; returns elapsed seconds."""
    moves = plan_redistribution(context, path)
    if not moves:
        return 0.0
    return move_blocks(context, path, dict(moves), "redistribute")
