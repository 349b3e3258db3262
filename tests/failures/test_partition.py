"""The ``partition`` chaos kind: parsing, asymmetry, healing, absorption."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.failures import ChaosEvent, ChaosSchedule
from repro.failures.campaign import CampaignCell, run_cell
from repro.failures.chaos import DEFAULT_PARTITION_DURATION
from repro.network.jitter import JitterSpec
from repro.network.topology import MBPS, PARTITION_CAPACITY_FLOOR
from repro.shuffle.backends import BACKENDS
from tests.conftest import make_context


def _chaos_context(*events, **overrides):
    return make_context(chaos=ChaosSchedule(tuple(events)), **overrides)


def _jittery_chaos_context(*events, jitter, seed=0):
    """quiet_config pins jitter=None, so build the jittered one by hand."""
    from dataclasses import replace

    from repro.cluster.context import ClusterContext
    from tests.conftest import quiet_config, small_spec

    config = replace(
        quiet_config(seed=seed, chaos=ChaosSchedule(tuple(events))),
        jitter=jitter,
    )
    return ClusterContext(small_spec(), config)


def _partition(at, duration=DEFAULT_PARTITION_DURATION, target="dc-a->dc-b"):
    return ChaosEvent(at=at, kind="partition", target=target, duration=duration)


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------
def test_parse_partition_defaults_duration():
    event = ChaosSchedule.parse_event("partition:dc-a->dc-b@5")
    assert event.kind == "partition"
    assert event.at == 5.0
    assert event.link_endpoints == ("dc-a", "dc-b")
    assert event.duration == DEFAULT_PARTITION_DURATION


def test_parse_partition_with_explicit_duration():
    event = ChaosSchedule.parse_event("partition:dc-b->dc-c@2.5+7")
    assert event.duration == 7.0


def test_partition_spec_round_trips_bit_exact():
    event = _partition(at=3.25, duration=12.125)
    assert ChaosSchedule.parse_event(event.to_spec()) == event


@pytest.mark.parametrize(
    "spec",
    [
        "partition:dc-a@5",  # needs src->dst
        "partition:dc-a->dc-b@5+0",  # a partition is never permanent
        "partition:dc-a->dc-b@5+-3",
        "partition:dc-a->dc-b@5+inf",
        "partition:dc-a->dc-b@5+later",
        "partition:dc-a->dc-b@soon",
    ],
)
def test_bad_partition_specs_raise(spec):
    with pytest.raises(ConfigurationError):
        ChaosSchedule.parse_event(spec)


# ---------------------------------------------------------------------------
# Application semantics
# ---------------------------------------------------------------------------
def test_partition_is_asymmetric_and_heals():
    context = _chaos_context(_partition(at=1.0, duration=2.0))
    forward = context.topology.wan_link("dc-a", "dc-b")
    reverse = context.topology.wan_link("dc-b", "dc-a")
    nominal = forward.capacity

    context.sim.run(until=1.5)
    assert forward.partitioned
    assert forward.capacity == PARTITION_CAPACITY_FLOOR
    # The reverse direction keeps flowing: partitions are asymmetric.
    assert not reverse.partitioned
    assert reverse.capacity == nominal

    context.sim.run(until=4.0)
    assert not forward.partitioned
    assert forward.capacity == nominal
    assert context.recovery.wan_partitions == 1
    context.shutdown()


def test_partition_heal_restores_composed_degrade_capacity():
    """Degrade keeps updating underneath a partition; the heal restores
    nominal x degrade, not the pre-partition capacity."""
    context = _chaos_context(
        ChaosEvent(
            at=1.0, kind="degrade", target="dc-a->dc-b", factor=0.5, duration=0.0
        ),
        _partition(at=2.0, duration=2.0),
    )
    link = context.topology.wan_link("dc-a", "dc-b")
    nominal = link.capacity
    context.sim.run(until=3.0)
    assert link.capacity == PARTITION_CAPACITY_FLOOR
    context.sim.run(until=5.0)
    assert link.capacity == pytest.approx(nominal * 0.5)
    context.shutdown()


def test_double_partition_of_same_link_is_skipped_not_raised():
    context = _chaos_context(
        _partition(at=1.0, duration=10.0), _partition(at=2.0, duration=10.0)
    )
    context.sim.run(until=3.0)
    assert context.chaos_injector.events_applied == 1
    record = context.chaos_injector.fired[-1]
    assert not record.applied
    assert "already partitioned" in record.detail
    assert context.recovery.wan_partitions == 1
    context.shutdown()


def test_partition_of_unknown_route_is_skipped_not_raised():
    context = _chaos_context(_partition(at=1.0, target="dc-a->nope"))
    context.sim.run(until=2.0)
    assert context.chaos_injector.events_applied == 0
    assert not context.chaos_injector.fired[0].applied
    context.shutdown()


# ---------------------------------------------------------------------------
# Composition with jitter (regression: chaos overlays jitter, it does
# not require jitter=None — the docstring used to claim otherwise)
# ---------------------------------------------------------------------------
def test_partition_pins_capacity_under_jitter_and_heals_into_it():
    jitter = JitterSpec(low=80 * MBPS, high=300 * MBPS, period=1.0)
    context = _jittery_chaos_context(
        _partition(at=2.0, duration=5.0), jitter=jitter, seed=11
    )
    link = context.topology.wan_link("dc-a", "dc-b")
    context.sim.run(until=4.0)
    # Jitter resamples every second but the partition pin wins.
    assert link.capacity == PARTITION_CAPACITY_FLOOR
    context.sim.run(until=10.0)
    assert not link.partitioned
    # Healed back into whatever the jitter walk currently says.
    assert jitter.low <= link.capacity <= jitter.high
    context.shutdown()


def test_degrade_composes_multiplicatively_with_jitter():
    jitter = JitterSpec(low=80 * MBPS, high=300 * MBPS, period=1.0)
    context = _jittery_chaos_context(
        ChaosEvent(
            at=1.0, kind="degrade", target="dc-a->dc-b", factor=0.25, duration=0.0
        ),
        jitter=jitter,
        seed=11,
    )
    link = context.topology.wan_link("dc-a", "dc-b")
    context.sim.run(until=8.0)
    # Several jitter periods later the degrade still applies on top of
    # the live jittered nominal capacity.
    assert link.degrade_factor == 0.25
    assert link.capacity == pytest.approx(link.nominal_capacity * 0.25)
    assert jitter.low <= link.nominal_capacity <= jitter.high
    context.shutdown()


# ---------------------------------------------------------------------------
# Absorption: every backend survives a mid-shuffle partition without an
# unexplained hang (the cell's liveness oracle would flag one) and
# without corrupting results or accounting.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", tuple(BACKENDS))
def test_partition_absorbed_by_every_backend(backend):
    cell = CampaignCell(
        index=0,
        schedule_specs=("partition:dc-a->dc-b@1+5",),
        backend=backend,
        policy="health",
        seed=0,
        expected_hash=None,
        max_wall_seconds=30.0,
    )
    outcome = run_cell(cell)
    assert outcome.violations == ()
    assert outcome.job_failed == ""
    assert "partition" in outcome.chaos_applied
    assert dict(outcome.recovery).get("wan_partitions") == 1
