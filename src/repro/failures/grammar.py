"""Weighted chaos-schedule grammar for the fuzz campaign.

:class:`ChaosUniverse` names everything a schedule may target in one
cluster — live hosts, datacenters, and directed WAN pairs — and
:func:`random_schedule` draws a seeded schedule from a weighted grammar
over every chaos kind (the seven pre-campaign kinds plus ``partition``).

Determinism contract: every draw comes from a dedicated named stream of
the supplied :class:`~repro.simulation.random_source.RandomSource`,
keyed by event index, so the same root seed always yields the same
schedule regardless of how many schedules were drawn before (callers
hand each schedule its own ``randomness.child(...)``).

Round-tripping: :func:`schedule_to_specs` serializes a schedule to the
compact CLI grammar with ``repr`` floats, and
``ChaosSchedule.from_specs`` parses it back bit-identically — the
campaign's replay artifacts are just these spec lists in JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, NoRouteError, parse_token
from repro.failures.chaos import ChaosEvent, ChaosSchedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import ClusterSpec
    from repro.cluster.context import ClusterContext
    from repro.simulation.random_source import RandomSource

# Relative draw weights per chaos kind.  Link-level faults dominate
# because they exercise the retry/blacklist/breaker paths the campaign
# is hunting in; whole-DC outages are rare (and often partially skipped
# by the last-executor guard, wasting budget).
DEFAULT_WEIGHTS: Dict[str, float] = {
    "crash": 2.0,
    "host": 2.0,
    "outage": 0.5,
    "merger": 1.0,
    "shuffle_worker": 1.0,
    "blob_outage": 1.0,
    "degrade": 2.5,
    "partition": 2.5,
}

# Transient-fault durations are drawn from this range (seconds of
# simulated time).  Kept shorter than the schedule window so heals land
# while the job still runs.
_DURATION_RANGE = (0.5, 5.0)
_DEGRADE_FACTOR_RANGE = (0.05, 0.5)


@dataclass(frozen=True)
class ChaosUniverse:
    """Everything one cluster offers as a chaos target."""

    hosts: Tuple[str, ...]
    datacenters: Tuple[str, ...]
    wan_pairs: Tuple[Tuple[str, str], ...]

    def validate(self) -> None:
        if not self.hosts:
            raise ConfigurationError("chaos universe has no hosts")
        if not self.datacenters:
            raise ConfigurationError("chaos universe has no datacenters")

    @classmethod
    def from_spec(cls, spec: ClusterSpec) -> ChaosUniverse:
        """Derive the universe from a declarative cluster spec.

        Only worker hosts are candidates (the driver host runs no
        executor, so killing it is always a skipped event).
        """
        datacenters = tuple(spec.datacenters)
        pairs = tuple(
            (src, dst)
            for src in datacenters
            for dst in datacenters
            if src != dst
        )
        return cls(
            hosts=tuple(spec.worker_names()),
            datacenters=datacenters,
            wan_pairs=pairs,
        )

    @classmethod
    def from_context(cls, context: ClusterContext) -> ChaosUniverse:
        """Derive the universe from a live cluster context."""
        topology = context.topology
        datacenters = tuple(sorted(topology.datacenters))
        pairs: List[Tuple[str, str]] = []
        for src in datacenters:
            for dst in datacenters:
                if src == dst:
                    continue
                try:
                    topology.wan_link(src, dst)
                except NoRouteError:
                    continue
                pairs.append((src, dst))
        return cls(
            hosts=tuple(sorted(context.executors)),
            datacenters=datacenters,
            wan_pairs=tuple(pairs),
        )


@dataclass(frozen=True)
class GrammarConfig:
    """Tunables for :func:`random_schedule`."""

    events: int = 3
    window: Tuple[float, float] = (0.5, 4.0)

    def validate(self) -> None:
        if self.events < 0:
            raise ConfigurationError("grammar events must be >= 0")
        start, end = self.window
        if not 0 <= start <= end:
            raise ConfigurationError(
                f"grammar window must satisfy 0 <= start <= end, "
                f"got {self.window!r}"
            )


def _weighted_kind(
    randomness: RandomSource, index: int, weights: Mapping[str, float]
) -> str:
    """Draw a kind proportionally to its weight (deterministic order:
    kinds are scanned in sorted order, so the insertion order of the
    weights never leaks into the draw)."""
    items = sorted(weights.items())
    total = sum(weight for _, weight in items)
    point = randomness.uniform(f"fuzz:kind:{index}", 0.0, total)
    running = 0.0
    for kind, weight in items:
        running += weight
        if point <= running:
            return kind
    return items[-1][0]


def random_schedule(
    randomness: RandomSource,
    universe: ChaosUniverse,
    config: Optional[GrammarConfig] = None,
) -> ChaosSchedule:
    """Draw one seeded schedule from the weighted grammar.

    A universe without WAN pairs (single-datacenter cluster) silently
    redistributes link-fault weight onto the remaining kinds.
    """
    universe.validate()
    config = config or GrammarConfig()
    config.validate()
    weights = dict(DEFAULT_WEIGHTS)
    if not universe.wan_pairs:
        weights.pop("degrade")
        weights.pop("partition")
    start, end = config.window
    hosts = tuple(sorted(universe.hosts))
    datacenters = tuple(sorted(universe.datacenters))
    wan_pairs = tuple(sorted(universe.wan_pairs))
    events: List[ChaosEvent] = []
    for index in range(config.events):
        kind = _weighted_kind(randomness, index, weights)
        at = randomness.uniform(f"fuzz:at:{index}", start, end)
        if kind in ("crash", "host"):
            target = randomness.choice(f"fuzz:host:{index}", hosts)
            events.append(ChaosEvent(at=at, kind=kind, target=target))
        elif kind in ("outage", "merger", "shuffle_worker"):
            target = randomness.choice(f"fuzz:dc:{index}", datacenters)
            events.append(ChaosEvent(at=at, kind=kind, target=target))
        elif kind == "blob_outage":
            target = randomness.choice(f"fuzz:dc:{index}", datacenters)
            duration = randomness.uniform(
                f"fuzz:duration:{index}", *_DURATION_RANGE
            )
            events.append(
                ChaosEvent(at=at, kind=kind, target=target, duration=duration)
            )
        elif kind == "degrade":
            src, dst = randomness.choice(f"fuzz:pair:{index}", wan_pairs)
            factor = randomness.uniform(
                f"fuzz:factor:{index}", *_DEGRADE_FACTOR_RANGE
            )
            duration = randomness.uniform(
                f"fuzz:duration:{index}", *_DURATION_RANGE
            )
            events.append(ChaosEvent(
                at=at,
                kind=kind,
                target=f"{src}->{dst}",
                factor=factor,
                duration=duration,
            ))
        else:  # partition
            src, dst = randomness.choice(f"fuzz:pair:{index}", wan_pairs)
            duration = randomness.uniform(
                f"fuzz:duration:{index}", *_DURATION_RANGE
            )
            events.append(ChaosEvent(
                at=at,
                kind=kind,
                target=f"{src}->{dst}",
                duration=duration,
            ))
    schedule = ChaosSchedule(tuple(events))
    schedule.validate()
    return schedule


def schedule_to_specs(schedule: ChaosSchedule) -> List[str]:
    """Serialize to the compact CLI grammar; bit-exact round trip via
    ``ChaosSchedule.from_specs``."""
    return [event.to_spec() for event in schedule.events]


# ---------------------------------------------------------------------------
# CLI token: ``random:<n>@<seed>``
# ---------------------------------------------------------------------------

def parse_random_token(token: str) -> Tuple[int, int]:
    """Parse a CLI ``random:<n>@<seed>`` chaos token.

    Returns ``(events, seed)``.  Malformed tokens raise
    :class:`ConfigurationError` naming the offending token, matching the
    rest of the chaos grammar's error style.
    """
    _, _, rest = token.partition(":")
    count_part, sep, seed_part = rest.partition("@")
    if not sep:
        raise ConfigurationError(
            f"bad chaos spec {token!r}: expected 'random:<n>@<seed>'"
        )
    events, seed = (
        parse_token(
            int,
            part,
            ConfigurationError,
            f"bad chaos spec {token!r}: {part!r} is not an integer",
        )
        for part in (count_part, seed_part)
    )
    if events < 1:
        raise ConfigurationError(
            f"bad chaos spec {token!r}: event count must be >= 1"
        )
    return events, seed
