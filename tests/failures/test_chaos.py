"""ChaosSchedule parsing/validation and ChaosInjector event application."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MapOutputMissingError
from repro.failures import ChaosEvent, ChaosSchedule
from repro.shuffle.map_output_tracker import ShuffleShard
from tests.conftest import make_context, small_spec


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
def test_parse_crash_spec():
    event = ChaosSchedule.parse_event("crash:dc-a-w0@5")
    assert event == ChaosEvent(at=5.0, kind="crash", target="dc-a-w0")


def test_parse_host_outage_merger_specs():
    assert ChaosSchedule.parse_event("host:dc-b-w1@2.5").kind == "host"
    assert ChaosSchedule.parse_event("outage:dc-b@10").target == "dc-b"
    assert ChaosSchedule.parse_event("merger:dc-a@1").kind == "merger"


def test_parse_degrade_with_factor_and_duration():
    event = ChaosSchedule.parse_event("degrade:dc-a->dc-b@3x0.25+7")
    assert event.at == 3.0
    assert event.factor == 0.25
    assert event.duration == 7.0
    assert event.link_endpoints == ("dc-a", "dc-b")


def test_parse_degrade_factor_only_defaults_duration():
    event = ChaosSchedule.parse_event("degrade:dc-a->dc-b@3x0.5")
    assert event.factor == 0.5
    assert event.duration == 0.0


def test_parse_shuffle_worker_spec():
    event = ChaosSchedule.parse_event("shuffle_worker:dc-b@4")
    assert event == ChaosEvent(at=4.0, kind="shuffle_worker", target="dc-b")


def test_parse_blob_outage_defaults_duration():
    from repro.failures.chaos import DEFAULT_BLOB_OUTAGE_DURATION

    event = ChaosSchedule.parse_event("blob_outage:dc-b@5")
    assert event.kind == "blob_outage"
    assert event.at == 5.0
    assert event.duration == DEFAULT_BLOB_OUTAGE_DURATION


def test_parse_blob_outage_with_explicit_duration():
    event = ChaosSchedule.parse_event("blob_outage:dc-b@5+10")
    assert event.at == 5.0
    assert event.duration == 10.0


@pytest.mark.parametrize(
    "spec",
    [
        "crash-no-colon",
        "crash:dc-a-w0",  # missing @time
        "crash:dc-a-w0@soon",  # time not a number
        "warp:dc-a-w0@5",  # unknown kind
        "crash:@5",  # empty target
        "degrade:dc-a@5",  # degrade needs src->dst
        "degrade:dc-a->dc-b@5x0",  # factor out of (0, 1]
        "degrade:dc-a->dc-b@5x2",
        "crash:dc-a-w0@-1",  # negative time
        "crash:dc-a-w0@inf",  # non-finite time
        "crash:dc-a-w0@nan",
        "degrade:dc-a->dc-b@5x-0.5",  # negative factor
        "degrade:dc-a->dc-b@5xinf",  # non-finite factor
        "degrade:dc-a->dc-b@5xnan",
        "degrade:dc-a->dc-b@5x0.5+-3",  # negative duration
        "degrade:dc-a->dc-b@5x0.5+inf",  # non-finite duration
        "degrade:dc-a->dc-b@5x0.5+later",  # duration not a number
        "degrade:dc-a->dc-b@5xbogus",  # factor not a number
        "shuffle_worker:dc-b",  # missing @time
        "shuffle_worker:dc-b@soon",  # time not a number
        "blob_outage:dc-b@5+later",  # duration not a number
        "blob_outage:dc-b@5+-3",  # negative duration
        "blob_outage:dc-b@5+0",  # zero duration
        "blob_outage:dc-b@5+inf",  # non-finite duration
    ],
)
def test_bad_specs_raise(spec):
    with pytest.raises(ConfigurationError):
        ChaosSchedule.parse_event(spec)


@pytest.mark.parametrize(
    ("spec", "token"),
    [
        ("crash:dc-a-w0@soon", "'soon'"),  # the non-numeric time token
        ("degrade:dc-a->dc-b@5xbogus", "'bogus'"),
        ("degrade:dc-a->dc-b@5x0.5+later", "'later'"),
        ("warp:dc-a-w0@5", "'warp'"),
        ("degrade:dc-a->dc-b@5x3", "3.0"),  # out-of-range factor value
        ("crash:dc-a-w0@inf", "inf"),
        ("shuffle_worker:dc-b@soon", "'soon'"),
        ("blob_outage:dc-b@5+later", "'later'"),
        ("blob_outage:dc-b@5+-3", "-3.0"),  # out-of-range duration value
    ],
)
def test_bad_spec_errors_name_the_offending_token(spec, token):
    """A malformed ``--chaos`` spec must fail with a message that points
    at the exact token, not a generic parse error."""
    with pytest.raises(ConfigurationError) as excinfo:
        ChaosSchedule.parse_event(spec)
    assert token in str(excinfo.value)


def test_from_specs_builds_validated_schedule():
    schedule = ChaosSchedule.from_specs(
        ["crash:dc-a-w0@5", "degrade:dc-a->dc-b@1x0.5"]
    )
    assert len(schedule.events) == 2
    assert bool(schedule)
    assert not bool(ChaosSchedule())


def test_sorted_events_orders_by_time_stably():
    first = ChaosEvent(at=5.0, kind="crash", target="a")
    second = ChaosEvent(at=5.0, kind="crash", target="b")
    early = ChaosEvent(at=1.0, kind="crash", target="c")
    schedule = ChaosSchedule((first, second, early))
    assert schedule.sorted_events() == [early, first, second]


# ---------------------------------------------------------------------------
# Injector application
# ---------------------------------------------------------------------------
def _chaos_context(*events, **overrides):
    return make_context(chaos=ChaosSchedule(tuple(events)), **overrides)


def _register_output(context, host, size_bytes):
    """Publish one one-map shuffle's output (shuffle 0, map 0) at ``host``."""
    service = context.shuffle_service
    service.register_shuffle(0, 1)
    service.register_map_output(0, 0, host, [ShuffleShard([1], size_bytes)])


def test_crash_event_removes_executor_but_keeps_storage():
    context = _chaos_context(ChaosEvent(at=1.0, kind="crash", target="dc-a-w0"))
    _register_output(context, "dc-a-w0", 1.0)
    context.sim.run(until=2.0)
    assert "dc-a-w0" not in context.executors
    assert context.map_output_tracker.bytes_by_host() == {"dc-a-w0": 1.0}
    assert context.recovery.executor_crashes == 1
    assert context.chaos_injector.events_applied == 1


def test_host_event_removes_executor_and_storage():
    context = _chaos_context(ChaosEvent(at=1.0, kind="host", target="dc-a-w0"))
    _register_output(context, "dc-a-w0", 1.0)
    context.sim.run(until=2.0)
    assert "dc-a-w0" not in context.executors
    with pytest.raises(MapOutputMissingError):
        context.map_output_tracker.map_status(0, 0)
    assert context.recovery.hosts_lost == 1


def test_unknown_target_is_skipped_not_raised():
    context = _chaos_context(ChaosEvent(at=1.0, kind="crash", target="nope"))
    context.sim.run(until=2.0)
    assert context.chaos_injector.events_applied == 0
    record = context.chaos_injector.fired[0]
    assert not record.applied
    assert "unknown worker host" in record.detail


def test_last_executor_is_never_taken():
    events = [
        ChaosEvent(at=1.0, kind="crash", target=host)
        for host in ("dc-a-w0", "dc-a-w1", "dc-b-w0", "dc-b-w1")
    ]
    context = _chaos_context(*events)
    context.sim.run(until=2.0)
    assert len(context.executors) == 1
    assert context.chaos_injector.events_applied == 3
    assert not context.chaos_injector.fired[-1].applied


def test_outage_takes_down_whole_datacenter():
    context = _chaos_context(ChaosEvent(at=1.0, kind="outage", target="dc-b"))
    context.sim.run(until=2.0)
    assert list(context.executors) == ["dc-a-w0", "dc-a-w1"]
    assert context.recovery.datacenter_outages == 1
    assert context.recovery.hosts_lost == 2


def test_merger_event_falls_back_to_data_heaviest_host():
    context = _chaos_context(ChaosEvent(at=1.0, kind="merger", target="dc-b"))
    _register_output(context, "dc-b-w1", 100.0)
    context.sim.run(until=2.0)
    assert "dc-b-w1" not in context.executors
    assert "dc-b-w0" in context.executors
    assert context.recovery.merger_losses == 1


def test_degrade_scales_link_and_restores_after_duration():
    context = _chaos_context(
        ChaosEvent(
            at=1.0, kind="degrade", target="dc-a->dc-b",
            factor=0.1, duration=5.0,
        )
    )
    link = context.topology.wan_link("dc-a", "dc-b")
    base = link.base_capacity
    context.sim.run(until=2.0)
    assert link.capacity == pytest.approx(base * 0.1)
    assert context.recovery.wan_degradations == 1
    context.sim.run(until=7.0)
    assert link.capacity == pytest.approx(base)


def test_shuffle_worker_event_falls_back_to_data_heaviest_host():
    """Backends without a worker pool resolve the target like ``merger``
    does: the live host storing the most map-output bytes."""
    context = _chaos_context(
        ChaosEvent(at=1.0, kind="shuffle_worker", target="dc-b")
    )
    _register_output(context, "dc-b-w1", 100.0)
    context.sim.run(until=2.0)
    assert "dc-b-w1" not in context.executors
    assert "dc-b-w0" in context.executors
    assert context.recovery.shuffle_worker_losses == 1


def test_shuffle_worker_event_kills_the_pool_worker():
    """With the remote backend the event resolves through the backend's
    worker pool and takes the dedicated worker, not a data host —
    surviving replicas keep serving with zero stage resubmissions."""
    context = _chaos_context(
        ChaosEvent(at=0.5, kind="shuffle_worker", target="dc-a"),
        backend="remote",
        scale_factor=1e5,
        dfs_replication=2,
    )
    records = [(f"k{i % 7}", i) for i in range(40)]
    context.write_input_file("/in", [records[i::4] for i in range(4)])
    result = dict(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=8)
        .collect()
    )
    expected: dict = {}
    for key, value in records:
        expected[key] = expected.get(key, 0) + value
    assert result == expected
    assert context.recovery.shuffle_worker_losses == 1
    context.sim.run()  # drain background re-replication
    context.shutdown()


def test_shuffle_worker_unknown_datacenter_is_skipped():
    context = _chaos_context(
        ChaosEvent(at=1.0, kind="shuffle_worker", target="dc-z")
    )
    context.sim.run(until=2.0)
    assert context.chaos_injector.events_applied == 0
    record = context.chaos_injector.fired[0]
    assert not record.applied
    assert "unknown datacenter" in record.detail


def test_blob_outage_opens_store_window():
    context = _chaos_context(
        ChaosEvent(at=1.0, kind="blob_outage", target="dc-b", duration=8.0),
        backend="blob",
    )
    context.sim.run(until=2.0)
    assert context.chaos_injector.events_applied == 1
    assert context.recovery.blob_outages == 1
    store = context.shuffle_service.blob_store()
    assert store.outage_remaining("dc-b", context.sim.now) == pytest.approx(
        7.0
    )
    assert store.outage_remaining("dc-a", context.sim.now) == 0.0
    context.sim.run(until=10.0)
    assert store.outage_remaining("dc-b", context.sim.now) == 0.0


def test_blob_outage_skipped_for_backends_without_a_store():
    context = _chaos_context(
        ChaosEvent(at=1.0, kind="blob_outage", target="dc-b", duration=5.0)
    )
    context.sim.run(until=2.0)
    assert context.chaos_injector.events_applied == 0
    record = context.chaos_injector.fired[0]
    assert not record.applied
    assert "no blob store" in record.detail


def test_blob_outage_unknown_datacenter_is_skipped():
    context = _chaos_context(
        ChaosEvent(at=1.0, kind="blob_outage", target="dc-z", duration=5.0),
        backend="blob",
    )
    context.sim.run(until=2.0)
    assert context.chaos_injector.events_applied == 0
    assert "unknown datacenter" in context.chaos_injector.fired[0].detail


def test_crash_relaunches_running_attempts():
    """A crash mid-job relaunches the victim's attempts elsewhere and the
    job still produces the correct result."""
    context = _chaos_context(
        ChaosEvent(at=0.5, kind="crash", target="dc-a-w0"),
        spec=small_spec(),
        # Inflate logical bytes so the job runs for simulated seconds and
        # the crash lands while attempts are in flight.
        scale_factor=1e5,
    )
    records = [(f"k{i % 7}", i) for i in range(40)]
    context.write_input_file("/in", [records[i::4] for i in range(4)])
    result = dict(
        context.text_file("/in")
        .reduce_by_key(lambda a, b: a + b, num_partitions=8)
        .collect()
    )
    expected: dict = {}
    for key, value in records:
        expected[key] = expected.get(key, 0) + value
    assert result == expected
    assert context.recovery.executor_crashes == 1
    context.shutdown()
