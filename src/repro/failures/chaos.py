"""ChaosSchedule: deterministic, timed fault injection for the kernel.

The ``repro.failures`` layer injects per-*attempt* reducer failures; a
chaos schedule injects *infrastructure* faults — the events the paper's
robustness argument (Fig. 2) is actually about — at fixed simulated
times, so every backend can be subjected to the **identical** fault
sequence:

* ``crash``   — an executor process crashes: its slots disappear and
  running attempts are relaunched elsewhere, but blocks stored on the
  host survive (Spark with the external shuffle service enabled);
* ``host``    — a whole worker host is lost: executor *and* storage
  (shuffle output, staged partitions, cache, DFS replicas).  Consumers
  hit FetchFailed and the DAG scheduler resubmits parents from lineage;
* ``outage``  — every live worker of one datacenter is lost (``host``
  applied DC-wide);
* ``merger``  — the datacenter's *merger host* is lost: the host the
  pre-merge backend consolidated onto (resolved at fire time via the
  backend's ``merger_host`` hook); for backends without mergers it
  falls back to the live host storing the most map-output bytes, so
  the same schedule stays meaningful across backends;
* ``shuffle_worker`` — the datacenter's busiest *dedicated shuffle
  worker* is lost (resolved at fire time via the backend's
  ``shuffle_worker_host`` hook); for backends without a worker pool it
  falls back to the live host storing the most map-output bytes, so
  the same schedule stays meaningful across backends;
* ``blob_outage`` — the datacenter's regional object store goes dark
  for ``duration`` seconds: blob requests inside the window retry
  (transient errors) until it closes.  Only meaningful for the
  ``blob`` backend; skipped-and-recorded elsewhere;
* ``degrade`` — one WAN link's capacity is multiplied by ``factor``;
  with a ``duration`` the base capacity is restored afterwards (a
  *flap* is a deep degrade with a short duration).  The factor is a
  multiplicative overlay on the link's *nominal* capacity, so
  ``BandwidthJitter`` and chaos compose: a jitter resample moves the
  nominal capacity and the degrade keeps scaling it — chaos schedules
  run fine with jitter enabled;
* ``partition`` — an asymmetric WAN partition: the *directed* link
  ``src->dst`` drops out of the fabric (capacity pinned to the
  partition floor) for ``duration`` seconds while the reverse link
  keeps working.  In-flight flows stall past their health deadline and
  take the flow-retry / blacklist / re-election paths; the heal
  restores whatever capacity jitter/degrade currently prescribe.

Events are plain data (time, kind, target), validated up front, fired
by a :class:`ChaosInjector` process the cluster context spawns at
construction.  The schedule is finite, so ``Simulator.run()`` still
terminates.  Compact CLI syntax (``--chaos crash:dc-a-w0@5``)::

    crash:<host>@<t>            outage:<dc>@<t>
    host:<host>@<t>             merger:<dc>@<t>
    shuffle_worker:<dc>@<t>     blob_outage:<dc>@<t>[+<duration>]
    degrade:<src>-><dst>@<t>x<factor>[+<duration>]
    partition:<src>-><dst>@<t>[+<duration>]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, NoRouteError, parse_token

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import ClusterContext
    from repro.network.topology import Link

KINDS = (
    "crash", "host", "outage", "merger",
    "shuffle_worker", "blob_outage", "degrade", "partition",
)

# A blob_outage with no explicit ``+<duration>`` lasts this long.
DEFAULT_BLOB_OUTAGE_DURATION = 5.0

# A partition with no explicit ``+<duration>`` heals after this long.
# Partitions are never permanent: a directed link that stays at the
# partition floor forever would wedge any flow whose final (deadline-
# free) retry lands on it.
DEFAULT_PARTITION_DURATION = 30.0

# Link capacities must stay positive; a "down" link is one at this floor.
MIN_LINK_CAPACITY = 1.0


@dataclass(frozen=True)
class ChaosEvent:
    """One timed fault: fire ``kind`` against ``target`` at time ``at``."""

    at: float
    kind: str
    target: str
    # degrade only: capacity multiplier and optional restore delay.
    factor: float = 0.1
    duration: float = 0.0

    def validate(self) -> None:
        if self.kind not in KINDS:
            known = ", ".join(KINDS)
            raise ConfigurationError(
                f"unknown chaos kind {self.kind!r} (one of: {known})"
            )
        if not math.isfinite(self.at) or self.at < 0:
            raise ConfigurationError(
                f"chaos event time must be finite and >= 0, got {self.at!r}"
            )
        if not self.target:
            raise ConfigurationError("chaos event needs a target")
        if self.kind == "degrade":
            if not (math.isfinite(self.factor) and 0 < self.factor <= 1):
                raise ConfigurationError(
                    f"degrade factor must be in (0, 1], got {self.factor!r}"
                )
            if not math.isfinite(self.duration) or self.duration < 0:
                raise ConfigurationError(
                    "degrade duration must be finite and >= 0, "
                    f"got {self.duration!r}"
                )
            if "->" not in self.target:
                raise ConfigurationError(
                    "degrade target must be '<src_dc>-><dst_dc>'"
                )
        if self.kind == "blob_outage":
            if not math.isfinite(self.duration) or self.duration <= 0:
                raise ConfigurationError(
                    "blob_outage duration must be finite and > 0, "
                    f"got {self.duration!r}"
                )
        if self.kind == "partition":
            if "->" not in self.target:
                raise ConfigurationError(
                    "partition target must be '<src_dc>-><dst_dc>'"
                )
            if not math.isfinite(self.duration) or self.duration <= 0:
                raise ConfigurationError(
                    "partition duration must be finite and > 0, "
                    f"got {self.duration!r}"
                )

    @property
    def link_endpoints(self) -> Tuple[str, str]:
        src, _, dst = self.target.partition("->")
        return src, dst

    def to_spec(self) -> str:
        """The compact CLI spec that parses back to exactly this event.

        Numbers are emitted with ``repr`` (shortest round-tripping
        form), so ``ChaosSchedule.parse_event(event.to_spec()) == event``
        holds bit-for-bit — campaign artifacts lean on this for
        byte-identical replay.
        """
        base = f"{self.kind}:{self.target}@{_format_number(self.at)}"
        if self.kind == "degrade":
            spec = f"{base}x{_format_number(self.factor)}"
            # Duration 0 means permanent; the parser defaults to it, so
            # omitting the suffix keeps the canonical form stable.
            if self.duration:
                spec += f"+{_format_number(self.duration)}"
            return spec
        if self.kind in ("blob_outage", "partition"):
            return f"{base}+{_format_number(self.duration)}"
        return base


@dataclass(frozen=True)
class ChaosSchedule:
    """An immutable, validated sequence of :class:`ChaosEvent`."""

    events: Tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def validate(self) -> None:
        for event in self.events:
            event.validate()

    def sorted_events(self) -> List[ChaosEvent]:
        """Events in firing order; ties break by declaration order
        (``sorted`` is stable)."""
        return sorted(self.events, key=lambda event: event.at)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def parse_event(spec: str) -> ChaosEvent:
        """Parse one compact CLI spec (see module docstring)."""
        kind, sep, rest = spec.partition(":")
        if not sep:
            raise ConfigurationError(
                f"bad chaos spec {spec!r}: expected '<kind>:<target>@<t>'"
            )
        target, sep, when = rest.rpartition("@")
        if not sep:
            raise ConfigurationError(
                f"bad chaos spec {spec!r}: missing '@<time>'"
            )
        factor, duration = 0.1, 0.0
        if kind == "degrade" and "x" in when:
            when, _, factor_part = when.partition("x")
            if "+" in factor_part:
                factor_part, _, duration_part = factor_part.partition("+")
                duration = _parse_number(spec, duration_part)
            factor = _parse_number(spec, factor_part)
        if kind == "blob_outage":
            duration = DEFAULT_BLOB_OUTAGE_DURATION
            if "+" in when:
                when, _, duration_part = when.partition("+")
                duration = _parse_number(spec, duration_part)
        if kind == "partition":
            duration = DEFAULT_PARTITION_DURATION
            if "+" in when:
                when, _, duration_part = when.partition("+")
                duration = _parse_number(spec, duration_part)
        event = ChaosEvent(
            at=_parse_number(spec, when),
            kind=kind,
            target=target,
            factor=factor,
            duration=duration,
        )
        event.validate()
        return event

    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> ChaosSchedule:
        return cls(tuple(cls.parse_event(spec) for spec in specs))


def _parse_number(spec: str, text: str) -> float:
    return parse_token(
        float,
        text,
        ConfigurationError,
        f"bad chaos spec {spec!r}: {text!r} is not a number",
    )


def _format_number(value: float) -> str:
    # repr() is the shortest string that floats back bit-exactly; small
    # simulated times never reach the 1e16+ range where repr grows a
    # '+' that would collide with the duration separator.
    return repr(float(value))


@dataclass
class FiredEvent:
    """Audit record of one applied (or skipped) chaos event."""

    event: ChaosEvent
    at: float
    applied: bool
    detail: str = ""


class ChaosInjector:
    """Fires a :class:`ChaosSchedule` into one cluster context.

    Spawned by the context at construction; each event resolves its
    target against *live* cluster state at fire time (a merger host is
    whatever host the backend actually merged onto).  Events whose
    target is already gone — or whose application would leave the
    cluster unable to finish any job (last live executor) — are skipped
    and recorded, never raised: chaos must not crash the experiment
    harness itself.
    """

    def __init__(self, context: ClusterContext, schedule: ChaosSchedule) -> None:
        schedule.validate()
        self.context = context
        self.schedule = schedule
        self.fired: List[FiredEvent] = []
        self._process = None

    # ------------------------------------------------------------------
    @property
    def events_applied(self) -> int:
        return sum(1 for record in self.fired if record.applied)

    def start(self) -> None:
        if self._process is None and self.schedule:
            self._process = self.context.sim.spawn(
                self._run(), name="chaos:injector"
            )

    def _run(self):
        sim = self.context.sim
        for event in self.schedule.sorted_events():
            if event.at > sim.now:
                yield sim.timeout(event.at - sim.now)
            self._fire(event)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _fire(self, event: ChaosEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        try:
            detail = handler(event)
        except (ConfigurationError, NoRouteError) as error:
            self.fired.append(
                FiredEvent(event, self.context.sim.now, False, str(error))
            )
            return
        self.fired.append(
            FiredEvent(event, self.context.sim.now, True, detail)
        )

    def _apply_crash(self, event: ChaosEvent) -> str:
        relaunched = self.context.crash_executor(event.target)
        return f"relaunched {relaunched} attempt(s)"

    def _apply_host(self, event: ChaosEvent) -> str:
        report = self.context.fail_host(event.target)
        return f"lost {report['map_outputs_lost']} map output(s)"

    def _apply_outage(self, event: ChaosEvent) -> str:
        context = self.context
        doomed = [
            host for host in context.topology.hosts_in(event.target)
            if host in context.executors
        ]
        if not doomed:
            raise ConfigurationError(
                f"no live workers in datacenter {event.target!r}"
            )
        lost = 0
        for host in doomed:
            try:
                context.fail_host(host)
                lost += 1
            except ConfigurationError:
                break  # refused to take the last live executor
        if lost == 0:
            raise ConfigurationError(
                f"outage of {event.target!r} would leave no executors"
            )
        context.recovery.datacenter_outages += 1
        return f"took down {lost}/{len(doomed)} host(s)"

    def _apply_merger(self, event: ChaosEvent) -> str:
        context = self.context
        merger = self._resolve_merger(event.target)
        if merger is None:
            raise ConfigurationError(
                f"no merger candidate alive in {event.target!r}"
            )
        context.fail_host(merger)
        context.recovery.merger_losses += 1
        return f"lost merger host {merger}"

    def _resolve_merger(self, datacenter: str) -> Optional[str]:
        """The backend's merger for ``datacenter``; for backends without
        mergers, the live host storing the most map-output bytes (tie →
        lexicographically first), so the schedule ports across backends."""
        context = self.context
        merger = context.shuffle_service.merger_host(datacenter)
        if merger is not None and merger in context.executors:
            return merger
        return self._busiest_store_host(datacenter)

    def _apply_shuffle_worker(self, event: ChaosEvent) -> str:
        context = self.context
        self._require_datacenter(event.target)
        worker = self._resolve_shuffle_worker(event.target)
        if worker is None:
            raise ConfigurationError(
                f"no shuffle-worker candidate alive in {event.target!r}"
            )
        context.fail_host(worker)
        context.recovery.shuffle_worker_losses += 1
        return f"lost shuffle worker {worker}"

    def _resolve_shuffle_worker(self, datacenter: str) -> Optional[str]:
        """The backend's busiest dedicated shuffle worker in
        ``datacenter``; for backends without a worker pool, the live host
        storing the most map-output bytes, so the schedule ports across
        backends."""
        context = self.context
        worker = context.shuffle_service.shuffle_worker_host(datacenter)
        if worker is not None and worker in context.executors:
            return worker
        return self._busiest_store_host(datacenter)

    def _busiest_store_host(self, datacenter: str) -> Optional[str]:
        context = self.context
        candidates = [
            host for host in sorted(context.topology.hosts_in(datacenter))
            if host in context.executors
        ]
        if not candidates:
            return None
        by_host = context.map_output_tracker.bytes_by_host()
        return min(
            candidates, key=lambda host: (-by_host.get(host, 0.0), host)
        )

    def _require_datacenter(self, name: str) -> None:
        if name not in self.context.topology.datacenters:
            raise ConfigurationError(f"unknown datacenter {name!r}")

    def _apply_blob_outage(self, event: ChaosEvent) -> str:
        context = self.context
        self._require_datacenter(event.target)
        store = context.shuffle_service.blob_store()
        if store is None:
            raise ConfigurationError(
                "backend has no blob store; blob_outage skipped"
            )
        until = context.sim.now + event.duration
        store.open_outage(event.target, until)
        context.recovery.blob_outages += 1
        return f"blob store {event.target} dark until t={until:g}"

    def _apply_degrade(self, event: ChaosEvent) -> str:
        context = self.context
        src, dst = event.link_endpoints
        link = context.topology.wan_link(src, dst)
        # Multiplicative overlay, not an absolute capacity: on jittered
        # links the resampler keeps moving the nominal capacity, and a
        # plain set_capacity would be overwritten at the next tick.
        factor = max(
            event.factor, MIN_LINK_CAPACITY / link.base_capacity
        )
        context.fabric.set_link_degrade(link, factor)
        context.recovery.wan_degradations += 1
        if event.duration > 0:
            context.sim.spawn(
                self._restore_later(link, event.duration),
                name=f"chaos:restore:{link.name}",
            )
        return f"{link.name} capacity x{factor:g} -> {link.capacity:.0f} B/s"

    def _restore_later(self, link: Link, delay: float):
        yield self.context.sim.timeout(delay)
        self.context.fabric.set_link_degrade(link, 1.0)

    def _apply_partition(self, event: ChaosEvent) -> str:
        context = self.context
        src, dst = event.link_endpoints
        link = context.topology.wan_link(src, dst)
        if link.partitioned:
            raise ConfigurationError(
                f"link {link.name} is already partitioned"
            )
        context.fabric.set_link_partition(link, True)
        context.recovery.wan_partitions += 1
        context.sim.spawn(
            self._heal_later(link, event.duration),
            name=f"chaos:heal:{link.name}",
        )
        until = context.sim.now + event.duration
        return f"{link.name} partitioned until t={until:g}"

    def _heal_later(self, link: Link, delay: float):
        yield self.context.sim.timeout(delay)
        self.context.fabric.set_link_partition(link, False)
