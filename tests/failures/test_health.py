"""Health-aware degradation: blacklist, circuit breakers, flow retry.

Unit tests drive :class:`BlacklistTracker` and :class:`LinkHealthMonitor`
with a fake clock so every state transition (timed expiry, cooldown,
half-open probe quota) is pinned exactly.  Integration tests replay the
ISSUE's acceptance scenarios: a transient WAN degrade absorbed entirely
by flow-level retries (zero stage resubmissions, byte-identical output)
and a sustained outage of the elected aggregation datacenter survived by
destination re-election.  A hypothesis sweep checks that retries never
break the counter-vs-traffic-monitor byte equality: every cancelled
flow's delivered bytes are counted exactly once, where they land.

``REPRO_SEEDS`` widens the seed sweep (CI runs the suite at 2).
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HealthConfig
from repro.failures import ChaosEvent, ChaosSchedule
from repro.failures import health as health_module
from repro.failures.health import (
    ALLOW,
    CLOSED,
    DEFER,
    HALF_OPEN,
    OPEN,
    PROBE,
    BlacklistTracker,
    LinkHealthMonitor,
)
from repro.metrics.perf import HealthCounters
from tests.conftest import make_context, small_spec
from tests.shuffle.test_counter_properties import _assert_counters_match_monitor

SEEDS = tuple(range(int(os.environ.get("REPRO_SEEDS", "1"))))
SCALE = 1e5
BACKENDS = ("fetch", "push_aggregate", "pre_merge")

# Deliberately aggressive deadlines (tighter than the fair-share
# contention on the shared WAN link) so a 5-second flap reliably
# produces deadline misses *during* the window — an over-eager retry
# config must still be correct, it just wastes some bytes.
RETRY_HEALTH = HealthConfig(
    flow_retry_enabled=True,
    flow_deadline_base=0.05,
    flow_deadline_multiplier=3.0,
    max_flow_retries=2,
    flow_retry_backoff=0.05,
)


def _fake_clock(now: float = 0.0):
    return SimpleNamespace(now=now)


def _fake_topology():
    # dc-a-w0 -> dc-a; good enough for the tracker's escalation logic.
    return SimpleNamespace(datacenter_of=lambda host: host.rsplit("-", 1)[0])


# ---------------------------------------------------------------------------
# BlacklistTracker unit tests (fake clock)
# ---------------------------------------------------------------------------
def _tracker(monkeypatch):
    monkeypatch.setattr(health_module, "MAX_TASK_FAILURES_PER_EXECUTOR", 3)
    monkeypatch.setattr(health_module, "BLACKLIST_TIMEOUT", 10.0)
    config = HealthConfig(blacklist_enabled=True)
    clock = _fake_clock()
    counters = HealthCounters()
    tracker = BlacklistTracker(config, counters, _fake_topology(), clock)
    return tracker, counters, clock


def test_blacklist_disabled_is_inert():
    config = HealthConfig()  # everything defaults off
    counters = HealthCounters()
    tracker = BlacklistTracker(config, counters, _fake_topology(), _fake_clock())
    for _ in range(10):
        tracker.note_task_failure("dc-a-w0", stage_id=1)
    assert not tracker.is_excluded("dc-a-w0", stage_id=1)
    assert not tracker.is_datacenter_excluded("dc-a")
    assert not any(counters.as_dict().values())


def test_stage_exclusion_is_per_stage(monkeypatch):
    tracker, counters, _ = _tracker(monkeypatch)
    tracker.note_task_failure("dc-a-w0", stage_id=7)
    assert not tracker.is_excluded("dc-a-w0", stage_id=7)
    tracker.note_task_failure("dc-a-w0", stage_id=7)
    assert tracker.is_excluded("dc-a-w0", stage_id=7)
    assert not tracker.is_excluded("dc-a-w0", stage_id=8)
    assert not tracker.is_excluded("dc-a-w0")  # not app-wide yet
    assert counters.stage_exclusions == 1


def test_host_exclusion_expires_after_timeout(monkeypatch):
    tracker, counters, clock = _tracker(monkeypatch)
    for _ in range(3):
        tracker.note_task_failure("dc-a-w0", stage_id=1)
    assert tracker.is_excluded("dc-a-w0")
    assert counters.hosts_blacklisted == 1
    assert tracker.next_expiry() == pytest.approx(10.0)
    clock.now = 9.9
    assert tracker.is_excluded("dc-a-w0")
    clock.now = 10.0
    assert not tracker.is_excluded("dc-a-w0")
    assert counters.blacklist_evictions == 1
    assert tracker.next_expiry() is None


def test_failure_window_resets_after_exclusion(monkeypatch):
    """Exclusion consumes the failure count: a single post-expiry
    failure must not immediately re-exclude the host."""
    tracker, _, clock = _tracker(monkeypatch)
    for _ in range(3):
        tracker.note_task_failure("dc-a-w0", stage_id=1)
    clock.now = 20.0
    tracker.note_task_failure("dc-a-w0", stage_id=2)
    assert not tracker.is_excluded("dc-a-w0")


def test_datacenter_escalation_and_unwind(monkeypatch):
    tracker, counters, clock = _tracker(monkeypatch)
    tracker.exclude_host("dc-a-w0")
    assert not tracker.is_datacenter_excluded("dc-a")
    tracker.exclude_host("dc-a-w1")
    assert tracker.is_datacenter_excluded("dc-a")
    assert counters.datacenters_blacklisted == 1
    # A third host of the datacenter is excluded transitively.
    assert tracker.is_excluded("dc-a-w2")
    assert not tracker.is_datacenter_excluded("dc-b")
    # Expiry returns the hosts and unwinds the escalation (counted once).
    clock.now = 10.0
    assert not tracker.is_datacenter_excluded("dc-a")
    assert not tracker.is_excluded("dc-a-w2")
    tracker.exclude_host("dc-a-w0")
    tracker.exclude_host("dc-a-w1")
    assert counters.datacenters_blacklisted == 2


# ---------------------------------------------------------------------------
# LinkHealthMonitor unit tests (fake clock, recording fabric)
# ---------------------------------------------------------------------------
class _RecordingFabric:
    def __init__(self):
        self.hints = {}

    def set_capacity_hint(self, link, rate):
        self.hints[link.name] = rate

    def clear_capacity_hint(self, link):
        self.hints.pop(link.name, None)


def _monitor(monkeypatch):
    monkeypatch.setattr(health_module, "BREAKER_FAILURE_THRESHOLD", 2)
    monkeypatch.setattr(health_module, "BREAKER_COOLDOWN", 5.0)
    config = HealthConfig(flow_retry_enabled=True)
    clock = _fake_clock()
    counters = HealthCounters()
    link = SimpleNamespace(name="wan:dc-a->dc-b")
    topology = SimpleNamespace(wan_link=lambda src, dst: link)
    fabric = _RecordingFabric()
    monitor = LinkHealthMonitor(config, counters, topology, fabric, clock)
    return monitor, counters, clock, fabric, link


def test_breaker_trips_after_consecutive_failures(monkeypatch):
    monitor, counters, _, fabric, link = _monitor(monkeypatch)
    monitor.record_failure("dc-a", "dc-b", observed_rate=1e6)
    assert monitor.state("dc-a", "dc-b") == CLOSED
    monitor.record_failure("dc-a", "dc-b", observed_rate=1e6)
    assert monitor.state("dc-a", "dc-b") == OPEN
    assert counters.breaker_trips == 1
    # The observed-rate EWMA became the capacity hint on the WAN link.
    assert fabric.hints[link.name] == pytest.approx(1e6)
    verdict, wait = monitor.admission("dc-a", "dc-b")
    assert verdict == DEFER
    assert wait == pytest.approx(5.0)
    assert monitor.datacenter_quarantined("dc-b")
    assert not monitor.datacenter_quarantined("dc-a")  # directed


def test_success_resets_consecutive_failure_count(monkeypatch):
    monitor, _, _, _, _ = _monitor(monkeypatch)
    monitor.record_failure("dc-a", "dc-b")
    monitor.record_success("dc-a", "dc-b")
    monitor.record_failure("dc-a", "dc-b")
    assert monitor.state("dc-a", "dc-b") == CLOSED


def test_half_open_probe_quota_and_close(monkeypatch):
    monitor, counters, clock, fabric, link = _monitor(monkeypatch)
    monitor.record_failure("dc-a", "dc-b", observed_rate=1e6)
    monitor.record_failure("dc-a", "dc-b", observed_rate=1e6)
    clock.now = 5.0
    assert monitor.state("dc-a", "dc-b") == HALF_OPEN
    # The hint lives only while open: probes must see the real path.
    assert link.name not in fabric.hints
    verdict, _ = monitor.admission("dc-a", "dc-b")
    assert verdict == PROBE
    assert counters.breaker_probes == 1
    # The probe quota (1) is taken: the next flow defers.
    verdict, _ = monitor.admission("dc-a", "dc-b")
    assert verdict == DEFER
    monitor.record_success("dc-a", "dc-b", probe=True, observed_rate=1e8)
    assert monitor.state("dc-a", "dc-b") == HALF_OPEN
    verdict, _ = monitor.admission("dc-a", "dc-b")
    assert verdict == PROBE
    monitor.record_success("dc-a", "dc-b", probe=True, observed_rate=1e8)
    assert monitor.state("dc-a", "dc-b") == CLOSED
    assert counters.breaker_closes == 1
    verdict, _ = monitor.admission("dc-a", "dc-b")
    assert verdict == ALLOW


def test_half_open_probe_failure_reopens(monkeypatch):
    monitor, counters, clock, _, _ = _monitor(monkeypatch)
    monitor.record_failure("dc-a", "dc-b")
    monitor.record_failure("dc-a", "dc-b")
    clock.now = 5.0
    verdict, _ = monitor.admission("dc-a", "dc-b")
    assert verdict == PROBE
    monitor.record_failure("dc-a", "dc-b", probe=True)
    assert monitor.state("dc-a", "dc-b") == OPEN
    assert counters.breaker_trips == 2
    # The cooldown restarts from the re-trip.
    clock.now = 9.0
    verdict, wait = monitor.admission("dc-a", "dc-b")
    assert verdict == DEFER
    assert wait == pytest.approx(1.0)


def test_intra_datacenter_flows_never_touch_breakers(monkeypatch):
    monitor, counters, _, _, _ = _monitor(monkeypatch)
    for _ in range(10):
        monitor.record_failure("dc-a", "dc-a")
    assert monitor.admission("dc-a", "dc-a") == (ALLOW, 0.0)
    assert counters.breaker_trips == 0


# ---------------------------------------------------------------------------
# Integration: transient WAN degrade absorbed by flow retries
# ---------------------------------------------------------------------------
def _three_dc_spec():
    return small_spec(datacenters=("dc-a", "dc-b", "dc-c"))


def _install_skewed_job(context, num_partitions: int = 16):
    records = [(f"k{i % 29}", i) for i in range(96)]
    context.write_input_file(
        "/in",
        [records[i::6] for i in range(6)],
        placement_hosts=[
            "dc-a-w0", "dc-a-w1", "dc-a-w0", "dc-a-w1", "dc-a-w1", "dc-b-w0",
        ],
    )
    return context.text_file("/in").reduce_by_key(
        lambda a, b: a + b, num_partitions=num_partitions
    )


def _flap_schedule(at: float = 1.0, factor: float = 0.01, duration: float = 5.0):
    return ChaosSchedule((
        ChaosEvent(at=at, kind="degrade", target="dc-a->dc-b",
                   factor=factor, duration=duration),
        ChaosEvent(at=at, kind="degrade", target="dc-b->dc-a",
                   factor=factor, duration=duration),
    ))


def _run_skewed(backend: str, seed: int, chaos=None, **overrides):
    context = make_context(
        backend=backend, seed=seed, spec=_three_dc_spec(),
        scale_factor=SCALE, chaos=chaos, health=RETRY_HEALTH, **overrides,
    )
    result = sorted(_install_skewed_job(context).collect())
    return context, result


def _expected_skewed_result():
    records = [(f"k{i % 29}", i) for i in range(96)]
    expected = {}
    for key, value in records:
        expected[key] = expected.get(key, 0) + value
    return sorted(expected.items())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_transient_degrade_absorbed_without_resubmission(backend, seed):
    """The ISSUE's first acceptance scenario: a deep WAN flap is fully
    absorbed at the flow layer — byte-identical output and *zero* stage
    resubmissions for every backend."""
    context, result = _run_skewed(backend, seed, chaos=_flap_schedule())
    assert result == _expected_skewed_result()
    assert context.recovery.stages_resubmitted == 0
    assert context.recovery.tasks_relaunched == 0
    _assert_counters_match_monitor(context)
    if backend in ("fetch", "pre_merge"):
        # These backends move reduce input over the degraded pair while
        # the flap is live; the retries (and trips) must be visible.
        assert context.health.flow_retries > 0
        assert context.health.breaker_trips > 0
    context.shutdown()


@pytest.mark.parametrize("seed", SEEDS)
def test_degrade_with_retry_disabled_still_completes(seed):
    """Sanity guard: the flap alone (no health features) also completes —
    slower, but the retry path is a strict improvement, not a crutch."""
    context = make_context(
        backend="fetch", seed=seed, spec=_three_dc_spec(),
        scale_factor=SCALE, chaos=_flap_schedule(),
    )
    result = sorted(_install_skewed_job(context).collect())
    assert result == _expected_skewed_result()
    assert context.health.flow_retries == 0
    context.shutdown()


# ---------------------------------------------------------------------------
# Integration: blacklist consulted at placement
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_excluded_host_is_avoided_at_placement(seed):
    context = make_context(
        seed=seed, scale_factor=SCALE,
        health=HealthConfig(blacklist_enabled=True),
    )
    context.blacklist.exclude_host("dc-a-w0")
    result = sorted(_install_skewed_job(context, num_partitions=8).collect())
    assert result  # job completed
    hosts = {
        span.host
        for stage in context.metrics.job.stages
        for span in stage.tasks
    }
    assert "dc-a-w0" not in hosts
    assert context.health.placements_vetoed > 0
    context.shutdown()


def test_repeated_injected_failures_blacklist_the_host(monkeypatch):
    """The failure injector's per-attempt failures all land on the
    victim host's counters and cross the app-wide threshold."""
    monkeypatch.setattr(health_module, "MAX_TASK_FAILURES_PER_EXECUTOR", 2)
    context = make_context(health=HealthConfig(blacklist_enabled=True))
    for _ in range(2):
        context.blacklist.note_task_failure("dc-b-w1", stage_id=3)
    assert context.blacklist.is_excluded("dc-b-w1")
    assert context.health.hosts_blacklisted == 1
    context.shutdown()


# ---------------------------------------------------------------------------
# Integration: sustained outage of the elected aggregation datacenter
# ---------------------------------------------------------------------------
def _install_transfer_job(context):
    # Primary replicas alternate dc-b / dc-c with the big block on
    # dc-b, so the auto-elected aggregator is dc-b while replication=2
    # leaves every block a surviving dc-c copy after the dc-b outage.
    context.write_input_file(
        "/in",
        [[(f"k{i}", i) for i in range(8)], [("q", 1)]],
        placement_hosts=["dc-b-w0", "dc-c-w0"],
    )
    moved = context.text_file("/in").transfer_to()
    return moved, moved.reduce_by_key(lambda a, b: a + b)


@pytest.mark.parametrize("seed", SEEDS)
def test_outage_of_aggregation_datacenter_reelects_destination(seed):
    """The ISSUE's second acceptance scenario: the elected aggregation
    datacenter dies mid-job; the resubmitted producer re-elects a live
    destination and the output is byte-identical."""
    clean_context = make_context(
        push=True, seed=seed, spec=_three_dc_spec(),
        scale_factor=SCALE, dfs_replication=2, health=RETRY_HEALTH,
    )
    moved, reduced = _install_transfer_job(clean_context)
    clean_result = sorted(reduced.collect())
    assert moved.transfer_dependency.resolved_destinations == ["dc-b"]
    spans = [
        span
        for stage in clean_context.metrics.job.stages
        if stage.kind != "transfer_producer"
        for span in stage.tasks
    ]
    when = min(
        (span.started_at + span.finished_at) / 2.0 for span in spans
    )
    clean_context.shutdown()

    schedule = ChaosSchedule(
        (ChaosEvent(at=when, kind="outage", target="dc-b"),)
    )
    context = make_context(
        push=True, seed=seed, spec=_three_dc_spec(),
        scale_factor=SCALE, dfs_replication=2, health=RETRY_HEALTH,
        chaos=schedule,
    )
    moved, reduced = _install_transfer_job(context)
    result = sorted(reduced.collect())
    assert result == clean_result
    assert context.recovery.stages_resubmitted >= 1
    destinations = moved.transfer_dependency.resolved_destinations
    assert destinations and "dc-b" not in destinations
    assert context.health.reelections >= 1
    context.shutdown()


# ---------------------------------------------------------------------------
# Integration: pre_merge merger re-election and fetch-shaped fallback
# ---------------------------------------------------------------------------
def _run_pre_merge(seed: int, health, prepare=None):
    context = make_context(
        backend="pre_merge", seed=seed, scale_factor=SCALE, health=health,
    )
    if prepare is not None:
        prepare(context)
    result = sorted(_install_skewed_job(context, num_partitions=8).collect())
    return context, result


def test_pre_merge_merger_election_avoids_blacklisted_host():
    """The merger is normally the host with the most bytes; once that
    host is excluded the election moves off it, and when *every*
    candidate is excluded the unfiltered choice stands (a suspect
    merger still beats no merger)."""
    context = make_context(
        backend="pre_merge", health=HealthConfig(blacklist_enabled=True),
    )
    backend = context.shuffle_service
    per_host = {"dc-a-w0": 100.0, "dc-a-w1": 1.0}
    assert backend._choose_merger("dc-a", per_host) == "dc-a-w0"
    context.blacklist.exclude_host("dc-a-w0")
    assert backend._choose_merger("dc-a", per_host) == "dc-a-w1"
    context.blacklist.exclude_host("dc-a-w1")
    assert backend._choose_merger("dc-a", per_host) == "dc-a-w0"
    context.shutdown()


@pytest.mark.parametrize("seed", SEEDS)
def test_pre_merge_falls_back_to_fetch_for_excluded_datacenter(seed):
    """With a populated source datacenter excluded at consolidation
    time, the merge is skipped — the layout stays scattered and reads
    degrade to plain per-source fetches with unchanged output."""
    clean_context, clean_result = _run_pre_merge(seed, HealthConfig())
    assert clean_context.shuffle_service.counters.merge_rounds > 0
    clean_context.shutdown()

    def quarantine_dc_a(ctx):
        # Model the datacenter crossing the exclusion threshold *after*
        # its maps completed (the interesting window): only the
        # consolidation-time query sees the exclusion — placement is
        # left alone so dc-a actually holds scattered map output.
        ctx.blacklist.is_datacenter_excluded = lambda dc: dc == "dc-a"
        ctx.blacklist.is_excluded = lambda host, stage_id=None: False

    context, result = _run_pre_merge(
        seed, HealthConfig(blacklist_enabled=True), prepare=quarantine_dc_a,
    )
    assert result == clean_result
    assert context.health.fallback_activations >= 1
    assert context.shuffle_service._fallback
    _assert_counters_match_monitor(context)
    context.shutdown()


# ---------------------------------------------------------------------------
# Property: retries never double-count bytes
# ---------------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    factor=st.floats(min_value=0.005, max_value=0.2),
    at=st.floats(min_value=0.5, max_value=3.0),
    seed=st.integers(min_value=0, max_value=3),
)
def test_flow_retries_never_double_count_bytes(backend, factor, at, seed):
    """Whatever the flap's depth and timing, every cancelled flow's
    delivered bytes are counted exactly once on both sides: the backend
    counters and the traffic monitor stay byte-equal."""
    context, result = _run_skewed(
        backend, seed, chaos=_flap_schedule(at=at, factor=factor),
    )
    assert result == _expected_skewed_result()
    _assert_counters_match_monitor(context)
    context.shutdown()


def test_whether_a_read_retries_is_decided_in_the_health_layer_only():
    """Every read takes the one retry path (``transfer_with_retry``, or
    its event from ``read_flow``); only the config and the health layer
    read ``flow_retry_enabled``, so no caller forks on it."""
    import ast
    from pathlib import Path

    import repro

    package = Path(repro.__file__).parent
    readers = sorted(
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if any(
            isinstance(node, ast.Attribute)
            and node.attr == "flow_retry_enabled"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == ["config.py", "failures/health.py"]
