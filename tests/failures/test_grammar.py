"""Weighted chaos grammar: determinism, round-trips, universes, tokens."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.failures import ChaosUniverse, GrammarConfig, grammar
from repro.failures.chaos import KINDS, ChaosSchedule as Schedule
from repro.failures.grammar import (
    DEFAULT_WEIGHTS,
    parse_random_token,
    random_schedule,
    schedule_to_specs,
)
from repro.simulation import RandomSource
from tests.conftest import make_context, small_spec


def three_dc_universe() -> ChaosUniverse:
    datacenters = ("dc-a", "dc-b", "dc-c")
    return ChaosUniverse(
        hosts=tuple(f"{dc}-w{i}" for dc in datacenters for i in range(2)),
        datacenters=datacenters,
        wan_pairs=tuple(
            (src, dst)
            for src in datacenters
            for dst in datacenters
            if src != dst
        ),
    )


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def test_same_seed_same_schedule():
    universe = three_dc_universe()
    config = GrammarConfig(events=5)
    first = random_schedule(RandomSource(7), universe, config)
    second = random_schedule(RandomSource(7), universe, config)
    assert first == second


def test_different_seeds_differ():
    universe = three_dc_universe()
    config = GrammarConfig(events=5)
    assert random_schedule(RandomSource(7), universe, config) != random_schedule(
        RandomSource(8), universe, config
    )


def test_weight_dict_order_does_not_leak_into_draws(monkeypatch):
    """The kind draw scans sorted kinds, so reordering the weight table
    leaves every draw as it was."""
    universe = three_dc_universe()
    config = GrammarConfig(events=6)
    forward = random_schedule(RandomSource(3), universe, config)
    monkeypatch.setattr(
        grammar, "DEFAULT_WEIGHTS", dict(reversed(list(DEFAULT_WEIGHTS.items())))
    )
    assert random_schedule(RandomSource(3), universe, config) == forward


# ---------------------------------------------------------------------------
# Coverage and round-trips
# ---------------------------------------------------------------------------
def test_grammar_reaches_every_kind_and_round_trips_bit_exact():
    universe = three_dc_universe()
    config = GrammarConfig(events=8)
    seen = set()
    for seed in range(40):
        schedule = random_schedule(RandomSource(seed), universe, config)
        for event in schedule.events:
            seen.add(event.kind)
            # Bit-exact CLI grammar round trip, event by event.
            assert Schedule.parse_event(event.to_spec()) == event
        assert Schedule.from_specs(schedule_to_specs(schedule)) == schedule
    assert seen == set(KINDS)


def test_events_land_inside_the_window():
    universe = three_dc_universe()
    config = GrammarConfig(events=10, window=(2.0, 3.0))
    schedule = random_schedule(RandomSource(1), universe, config)
    for event in schedule.events:
        assert 2.0 <= event.at <= 3.0


def test_zero_events_gives_empty_schedule():
    schedule = random_schedule(
        RandomSource(0), three_dc_universe(), GrammarConfig(events=0)
    )
    assert not schedule.events


# ---------------------------------------------------------------------------
# Universes
# ---------------------------------------------------------------------------
def test_universe_from_spec_targets_workers_and_all_ordered_pairs():
    universe = ChaosUniverse.from_spec(
        small_spec(datacenters=("dc-a", "dc-b", "dc-c"))
    )
    assert "dc-a-w0" in universe.hosts
    assert all("driver" not in host for host in universe.hosts)
    assert len(universe.wan_pairs) == 6  # 3 DCs, both directions


def test_universe_from_context_probes_live_routes():
    context = make_context()
    universe = ChaosUniverse.from_context(context)
    assert set(universe.hosts) == set(context.executors)
    assert ("dc-a", "dc-b") in universe.wan_pairs
    assert ("dc-b", "dc-a") in universe.wan_pairs
    context.shutdown()


def test_single_dc_universe_redistributes_link_weights():
    universe = ChaosUniverse(
        hosts=("dc-a-w0", "dc-a-w1"), datacenters=("dc-a",), wan_pairs=()
    )
    schedule = random_schedule(
        RandomSource(4), universe, GrammarConfig(events=20)
    )
    kinds = {event.kind for event in schedule.events}
    assert kinds
    assert "degrade" not in kinds
    assert "partition" not in kinds


def test_empty_universe_rejected():
    with pytest.raises(ConfigurationError):
        ChaosUniverse(hosts=(), datacenters=("dc-a",), wan_pairs=()).validate()


# ---------------------------------------------------------------------------
# GrammarConfig validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "config",
    [
        GrammarConfig(events=-1),
        GrammarConfig(window=(3.0, 1.0)),
        GrammarConfig(window=(-1.0, 2.0)),
    ],
)
def test_bad_grammar_config_rejected(config):
    with pytest.raises(ConfigurationError):
        config.validate()


# ---------------------------------------------------------------------------
# random:<n>@<seed> token
# ---------------------------------------------------------------------------
def test_parse_random_token():
    assert parse_random_token("random:5@42") == (5, 42)


@pytest.mark.parametrize(
    "token",
    [
        "random:5",  # missing @seed
        "random:x@1",  # count not an integer
        "random:3@y",  # seed not an integer
        "random:0@1",  # count must be >= 1
    ],
)
def test_bad_random_token_names_the_token(token):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_random_token(token)
    assert repr(token) in str(excinfo.value)
