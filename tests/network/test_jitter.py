"""Bandwidth jitter: bounds, determinism, and fabric coupling."""

import pytest

from repro.network.fabric import NetworkFabric
from repro.network.jitter import BandwidthJitter, JitterSpec
from repro.network.topology import GBPS, MBPS, Topology
from repro.simulation import RandomSource, Simulator


def build():
    sim = Simulator()
    topo = Topology()
    topo.add_datacenter("A")
    topo.add_datacenter("B")
    topo.add_host("a1", "A", access_bandwidth=GBPS, access_latency=0.0)
    topo.add_host("b1", "B", access_bandwidth=GBPS, access_latency=0.0)
    topo.connect_datacenters("A", "B", 200 * MBPS, latency=0.0)
    fabric = NetworkFabric(sim, topo)
    return sim, topo, fabric


def test_spec_validation():
    with pytest.raises(ValueError):
        JitterSpec(low=0, high=100).validate()
    with pytest.raises(ValueError):
        JitterSpec(low=100, high=50).validate()
    with pytest.raises(ValueError):
        JitterSpec(period=0).validate()
    with pytest.raises(ValueError):
        JitterSpec(max_step_fraction=0).validate()
    JitterSpec().validate()


def test_capacities_stay_within_band():
    sim, topo, fabric = build()
    spec = JitterSpec(low=80 * MBPS, high=300 * MBPS, period=1.0)
    jitter = BandwidthJitter(
        sim, fabric, topo.wan_links(), spec, RandomSource(1)
    )
    jitter.start()
    observed = []

    def sampler(sim):
        for _ in range(50):
            yield sim.timeout(1.0)
            observed.extend(link.capacity for link in topo.wan_links())

    sim.spawn(sampler(sim))
    sim.run(until=55)
    jitter.stop()
    assert observed
    for capacity in observed:
        assert spec.low <= capacity <= spec.high


def test_jitter_is_deterministic_per_seed():
    def capacities_after(seed):
        sim, topo, fabric = build()
        jitter = BandwidthJitter(
            sim, fabric, topo.wan_links(),
            JitterSpec(period=1.0), RandomSource(seed),
        )
        jitter.start()
        sim.run(until=10)
        jitter.stop()
        return [link.capacity for link in topo.wan_links()]

    assert capacities_after(5) == capacities_after(5)
    assert capacities_after(5) != capacities_after(6)


def test_jitter_changes_transfer_times():
    """A long transfer under jitter differs from the static case."""
    def transfer_time(with_jitter):
        sim, topo, fabric = build()
        if with_jitter:
            jitter = BandwidthJitter(
                sim, fabric, topo.wan_links(),
                JitterSpec(low=80 * MBPS, high=300 * MBPS, period=0.5),
                RandomSource(42),
            )
            jitter.start()
        done = fabric.transfer("a1", "b1", 100_000_000)
        sim.run_until_event(done)
        return sim.now

    static = transfer_time(False)
    jittered = transfer_time(True)
    assert static == pytest.approx(4.0)  # 100 MB at 25 MB/s
    assert jittered != pytest.approx(4.0)
    # Band [80, 300] Mbps bounds the possible duration.
    assert 100e6 / (300 * MBPS) <= jittered <= 100e6 / (80 * MBPS)


def test_only_wan_links_are_perturbed():
    sim, topo, fabric = build()
    access = topo.host("a1").uplink
    before = access.capacity
    jitter = BandwidthJitter(
        sim, fabric,
        list(topo.wan_links()) + [access],
        JitterSpec(period=1.0),
        RandomSource(0),
    )
    jitter.start()
    sim.run(until=5)
    jitter.stop()
    assert access.capacity == before


def test_start_is_idempotent():
    sim, topo, fabric = build()
    jitter = BandwidthJitter(
        sim, fabric, topo.wan_links(), JitterSpec(period=1.0), RandomSource(0)
    )
    jitter.start()
    capacity = next(iter(topo.wan_links())).capacity
    jitter.start()
    assert next(iter(topo.wan_links())).capacity == capacity
    jitter.stop()


def test_degrade_survives_jitter_resample():
    """A chaos degrade factor persists across jitter ticks.

    Regression: jitter used to walk the *effective* capacity and clamp
    it back into [low, high], silently erasing any degrade within one
    period — so ``degrade`` chaos was a no-op on jittered clusters.
    """
    sim, topo, fabric = build()
    link = topo.wan_link("A", "B")
    spec = JitterSpec(low=80 * MBPS, high=300 * MBPS, period=1.0)
    jitter = BandwidthJitter(
        sim, fabric, topo.wan_links(), spec, RandomSource(3)
    )
    jitter.start()
    fabric.set_link_degrade(link, 0.01)
    sim.run(until=10)
    # Ten resamples later the effective capacity still carries the
    # degrade: 1% of a nominal value inside the jitter band.
    assert link.degrade_factor == pytest.approx(0.01)
    assert spec.low <= link.nominal_capacity <= spec.high
    assert link.capacity == pytest.approx(link.nominal_capacity * 0.01)
    assert link.capacity < spec.low
    fabric.set_link_degrade(link, 1.0)
    assert link.capacity == pytest.approx(link.nominal_capacity)
    jitter.stop()


def test_walk_equals_named_stream_uniform_walk():
    """The loop binds each link's ``jitter:target:<link>`` stream once
    and inlines the draw and ``Link.set_capacity``; 1 000 periods must
    equal, float for float, the walk ``RandomSource.uniform`` +
    ``Link.set_capacity`` give — through a degrade and a partition."""
    spec = JitterSpec(low=80 * MBPS, high=300 * MBPS, period=1.0)
    periods = 1000
    degrade_at, partition_at, heal_at = 200, 400, 650

    def perturb(period, link):
        if period == degrade_at:
            link.set_degrade_factor(0.25)
        if period == partition_at:
            link.set_partitioned(True)
        if period == heal_at:
            link.set_partitioned(False)

    # Reference: the loop as it was, on a topology of its own.
    _sim, ref_topo, _fabric = build()
    ref_links = list(ref_topo.wan_links())
    randomness = RandomSource(11)
    for link in ref_links:
        link.set_capacity(
            randomness.uniform(f"jitter:init:{link.name}", spec.low, spec.high)
        )
    max_step = (spec.high - spec.low) * spec.max_step_fraction
    expected = []
    for period in range(1, periods + 1):
        perturb(period, ref_links[0])
        for link in ref_links:
            target = randomness.uniform(
                f"jitter:target:{link.name}", spec.low, spec.high
            )
            delta = target - link.nominal_capacity
            delta = max(-max_step, min(max_step, delta))
            link.set_capacity(
                min(spec.high, max(spec.low, link.nominal_capacity + delta))
            )
        expected.append(
            [(link.nominal_capacity, link.capacity) for link in ref_links]
        )

    sim, topo, fabric = build()
    links = list(topo.wan_links())
    assert [link.name for link in links] == [link.name for link in ref_links]
    assert len(links) == 2
    BandwidthJitter(sim, fabric, links, spec, RandomSource(11)).start()
    observed = []
    # Resamples land on t = 1, 2, ...: perturb half a period before
    # each, read a quarter after.
    for period in range(1, periods + 1):
        sim.call_at(
            period - 0.5, lambda period=period: perturb(period, links[0])
        )
        sim.call_at(
            period + 0.25,
            lambda: observed.append(
                [(link.nominal_capacity, link.capacity) for link in links]
            ),
        )
    sim.run(until=periods + 0.5)
    assert observed == expected
    partitioned = observed[partition_at][0]
    assert partitioned[1] == 1.0 and partitioned[0] >= spec.low
    assert observed[heal_at][0][1] == observed[heal_at][0][0] * 0.25

