"""Pre-merge backend: consolidate map output per datacenter, then fetch.

A FuxiShuffle/Magnet-style middle ground between the fetch baseline and
the paper's full Push/Aggregate.  After a shuffle's map stage completes
(and before any reducer launches), each datacenter's scattered map
outputs are merged onto a single *merger host* — the host already
holding the most bytes of that shuffle inside the datacenter — using
cheap intra-datacenter flows.  The WAN hop then degenerates from the
bursty per-shard all-to-all of §II-B to **one coalesced flow per remote
datacenter per reducer**: the same bytes cross the WAN, but as few
large sequential transfers instead of ``maps x reducers`` tiny ones,
which matters under per-flow fair sharing and the cluster's WAN flow
cap.

Correctness: the merge relocates shards without touching their records,
and the shared ``shuffle_read`` concatenates shards in global map-index
order — byte-identical reduce input (hence byte-identical job output)
to the fetch baseline; only time and traffic shape differ.  The
backend-equivalence suite in ``tests/shuffle`` pins this down.

Own code: merger election and the consolidation plan (``_stage``); the
rest is :class:`~repro.shuffle.service.ShuffleBackend`'s data path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.shuffle.service import ShuffleBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdd.dependencies import ShuffleDependency
    from repro.shuffle.map_output_tracker import MapStatus


class PreMergeBackend(ShuffleBackend):
    """Merge map outputs per-datacenter before the WAN hop."""

    name = "pre_merge"
    scheme_label = "PreMerge"
    flow_tags = ("shuffle", "shuffle_merge", "transfer_to")

    def __init__(self) -> None:
        # After the merge each datacenter exposes (at most) one source
        # host, so a reducer opens at most one WAN flow per remote
        # datacenter.
        super().__init__(coalesced_reads=True)
        # Most recent merger host per datacenter — the single point of
        # failure chaos "merger" events target.
        self._mergers: Dict[str, str] = {}
        # Shadow of the last *elected* merger per datacenter, surviving
        # ``on_host_failure`` (unlike ``_mergers``): a consolidation
        # that lands on a different host than last time is a merger
        # re-election, counted in HealthCounters.
        self._last_merger: Dict[str, str] = {}
        # Shuffles where a datacenter's merge was skipped for health
        # (blacklisted DC): their layout stays scattered there and reads
        # degrade to plain per-source fetches — the last-resort fallback.
        self._fallback: Set[int] = set()

    # ------------------------------------------------------------------
    # Pre-reduce consolidation
    # ------------------------------------------------------------------
    def _choose_merger(
        self, datacenter: str, per_host: Dict[str, float]
    ) -> str | None:
        """The live host with the most of this shuffle's bytes.

        Candidates are sorted before picking, so the choice depends only
        on the byte distribution — never on dict/host-set iteration
        order — and stays reproducible across seeds when hosts have
        been removed mid-run.  Falls back to any live host of the
        datacenter when every data-holding host is gone; None when the
        datacenter has no live executor at all (leave data scattered).
        """
        executors = self.context.executors
        candidates = sorted(
            host for host in per_host if host in executors
        )
        if not candidates:
            candidates = sorted(
                host
                for host in self.context.topology.hosts_in(datacenter)
                if host in executors
            )
        if not candidates:
            return None
        # Prefer hosts the blacklist considers healthy; when every
        # candidate is excluded the unfiltered list stands (a merge onto
        # a suspect host still beats leaving the data scattered).
        blacklist = self.context.blacklist
        if blacklist.enabled:
            healthy = [
                host for host in candidates if not blacklist.is_excluded(host)
            ]
            if healthy:
                candidates = healthy
        return min(
            candidates, key=lambda host: (-per_host.get(host, 0.0), host)
        )

    def _stage(self, dep: ShuffleDependency, recovery: bool, tenant: str):
        """Consolidate each datacenter's map output onto its merger.
        On recovery the just-recomputed partitions sit at scattered
        hosts: they join a *surviving* merger, recovery-tagged."""
        shuffle_id = dep.shuffle_id
        context = self.context
        topology = context.topology
        statuses = context.map_output_tracker.map_statuses(shuffle_id)

        by_dc: Dict[str, List[MapStatus]] = {}
        for status in statuses:
            by_dc.setdefault(topology.datacenter_of(status.host), []).append(
                status
            )

        flows = []
        moves: List[Tuple[MapStatus, str]] = []
        for datacenter in sorted(by_dc):
            group = by_dc[datacenter]
            per_host: Dict[str, float] = {}
            for status in group:
                per_host[status.host] = (
                    per_host.get(status.host, 0.0) + status.total_size
                )
            if len(per_host) < 2 and not (
                recovery and len(per_host) == 1
            ):
                continue  # already co-located (or a single map)
            if context.blacklist.is_datacenter_excluded(datacenter):
                # The whole datacenter is suspect: funnelling its bytes
                # onto one member would concentrate risk, so leave the
                # layout scattered and let reads degrade to plain
                # per-source fetches (byte-identical output, fetch-shaped
                # traffic) — the last-resort fallback.
                if shuffle_id not in self._fallback:
                    self._fallback.add(shuffle_id)
                    context.health.fallback_activations += 1
                continue
            merger = self._choose_merger(datacenter, per_host)
            if merger is None:
                continue
            self._mergers[datacenter] = merger
            previous = self._last_merger.get(datacenter)
            if previous is not None and previous != merger:
                context.health.reelections += 1
            self._last_merger[datacenter] = merger
            if all(status.host == merger for status in group):
                continue  # recovery found everything already in place
            self.counters.merge_rounds += 1
            self.counters.merge_fan_in += len(group)
            for status in group:
                if status.host == merger:
                    continue
                moves.append((status, merger))
                if status.total_size > 0:
                    flows.append(
                        self._move(
                            status.host, merger, status.total_size,
                            "shuffle_merge", tenant, shuffle_id, recovery,
                        )
                    )
        if flows:
            yield context.sim.all_of(flows)
        # Relocate metadata and payloads only after the flows finished:
        # reducers are not launched until this process returns, so no
        # read can observe a half-merged layout.
        for status, merger in moves:
            self.relocate_map_output(
                shuffle_id, status.map_index, merger,
                self.shards_of(shuffle_id, status),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def remove_shuffle(self, shuffle_id: int) -> None:
        super().remove_shuffle(shuffle_id)
        self._fallback.discard(shuffle_id)

    def on_host_failure(self, host: str) -> None:
        """Re-run partitions register at new hosts; allow a re-merge so
        the recovered outputs are consolidated again before the next
        consuming stage."""
        self._staged.clear()
        for datacenter, merger in list(self._mergers.items()):
            if merger == host:
                del self._mergers[datacenter]

    def merger_host(self, datacenter: str) -> str | None:
        return self._mergers.get(datacenter)
