"""The Centralized baseline's pre-processing phase, and the block move
it shares with the IridiumLike baseline.

"All raw data is sent to a single datacenter before being processed.
After all data is centralized within a cluster, Spark works within a
datacenter to process data" (§V-A).  The phase transfers every input
block that is outside the destination datacenter, concurrently, over
the simulated WAN — charging both time and cross-datacenter traffic —
then rewrites the DFS metadata so the job's map tasks find local
blocks.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.context import ClusterContext


def centralize_input(
    context: ClusterContext, path: str, destination_datacenter: str
) -> float:
    """Ship file ``path`` into one datacenter; returns elapsed seconds."""
    workers = context.workers_in(destination_datacenter)
    if not workers:
        raise ValueError(
            f"no workers in datacenter {destination_datacenter!r}"
        )
    dfs = context.dfs
    targets: Dict[str, str] = {}
    for index, block_id in enumerate(dfs.file_blocks(path)):
        source = dfs.read_block(block_id).hosts[0]
        if context.topology.datacenter_of(source) != destination_datacenter:
            targets[block_id] = workers[index % len(workers)]
    return move_blocks(context, path, targets, "centralize")


def move_blocks(
    context: ClusterContext, path: str, targets: Dict[str, str], tag: str
) -> float:
    """Move each block of ``path`` named in ``targets`` from its first
    replica to its target host, concurrently over the fabric under flow
    tag ``tag``, then rewrite the file with one block per old block,
    placed on its target (or, unnamed, on its first replica).  Returns
    the elapsed simulated seconds."""
    start = context.sim.now
    process = context.sim.spawn(
        _move_process(context, path, targets, tag), name=f"{tag}:{path}"
    )
    context.sim.run_until_event(process)
    return context.sim.now - start


def _move_process(context, path, targets, tag):
    dfs = context.dfs
    blocks = [dfs.read_block(block_id) for block_id in dfs.file_blocks(path)]
    placement = [targets.get(b.block_id, b.hosts[0]) for b in blocks]
    flows = [
        context.fabric.transfer(block.hosts[0], target, block.size_bytes, tag=tag)
        for block, target in zip(blocks, placement)
        if target != block.hosts[0]
    ]
    if flows:
        yield context.sim.all_of(flows)
    dfs.delete_file(path)
    dfs.write_file(
        path,
        [block.records for block in blocks],
        [block.size_bytes for block in blocks],
        placement_hosts=placement,
    )
