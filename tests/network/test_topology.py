"""Topology: construction, routes, gateways, and validation."""

import pytest

from repro.errors import ConfigurationError, NoRouteError, UnknownHostError
from repro.network.topology import GBPS, MBPS, Link, Topology


def build_two_dc() -> Topology:
    topo = Topology()
    topo.add_datacenter("east")
    topo.add_datacenter("west")
    topo.add_host("e1", "east")
    topo.add_host("e2", "east")
    topo.add_host("w1", "west")
    topo.connect_datacenters("east", "west", 100 * MBPS, latency=0.05)
    return topo


def test_same_host_route_is_empty():
    topo = build_two_dc()
    assert topo.route("e1", "e1") == []


def test_intra_dc_route_uses_access_links():
    topo = build_two_dc()
    route = topo.route("e1", "e2")
    assert [link.name for link in route] == ["e1:up", "e2:down"]


def test_cross_dc_route_includes_wan_link():
    topo = build_two_dc()
    names = [link.name for link in topo.route("e1", "w1")]
    assert names == ["e1:up", "wan:east->west", "w1:down"]


def test_cross_dc_route_with_gateways():
    topo = build_two_dc()
    topo.set_gateway("east", 200 * MBPS)
    topo.set_gateway("west", 200 * MBPS)
    names = [link.name for link in topo.route("e1", "w1")]
    assert names == [
        "e1:up", "gw:east:out", "wan:east->west", "gw:west:in", "w1:down",
    ]


def test_wan_links_are_directional_pairs():
    topo = build_two_dc()
    forward = topo.wan_link("east", "west")
    backward = topo.wan_link("west", "east")
    assert forward is not backward
    assert forward.is_wan and backward.is_wan


def test_route_latency_sums_links():
    topo = build_two_dc()
    latency = topo.route_latency("e1", "w1")
    assert latency == pytest.approx(0.05 + 2 * 0.0005)


def test_unknown_host_raises():
    topo = build_two_dc()
    with pytest.raises(UnknownHostError):
        topo.host("nope")
    with pytest.raises(UnknownHostError):
        topo.hosts_in("nope")


def test_missing_wan_link_raises():
    topo = Topology()
    topo.add_datacenter("a")
    topo.add_datacenter("b")
    topo.add_host("a1", "a")
    topo.add_host("b1", "b")
    with pytest.raises(NoRouteError):
        topo.route("a1", "b1")


def test_validate_detects_missing_links_and_empty_dcs():
    topo = Topology()
    topo.add_datacenter("a")
    topo.add_datacenter("b")
    topo.add_host("a1", "a")
    topo.add_host("b1", "b")
    with pytest.raises(ConfigurationError):
        topo.validate()
    topo.connect_datacenters("a", "b", 1 * GBPS)
    topo.validate()
    topo.add_datacenter("empty")
    topo.connect_datacenters("a", "empty", 1 * GBPS)
    topo.connect_datacenters("b", "empty", 1 * GBPS)
    with pytest.raises(ConfigurationError):
        topo.validate()


def test_duplicate_names_rejected():
    topo = Topology()
    topo.add_datacenter("a")
    with pytest.raises(ConfigurationError):
        topo.add_datacenter("a")
    topo.add_host("h", "a")
    with pytest.raises(ConfigurationError):
        topo.add_host("h", "a")


def test_self_connection_rejected():
    topo = Topology()
    topo.add_datacenter("a")
    with pytest.raises(ConfigurationError):
        topo.connect_datacenters("a", "a", 1 * GBPS)


def test_link_capacity_validation():
    with pytest.raises(ConfigurationError):
        Link("bad", capacity=0)
    with pytest.raises(ConfigurationError):
        Link("bad", capacity=10, latency=-1)
    link = Link("ok", capacity=10)
    with pytest.raises(ConfigurationError):
        link.set_capacity(-5)
    link.set_capacity(20)
    assert link.capacity == 20
    assert link.base_capacity == 10


def test_route_is_memoized_per_host_pair():
    topo = build_two_dc()
    first = topo.route("e1", "w1")
    second = topo.route("e1", "w1")
    assert first is second  # same cached object
    assert topo.route_cache_misses == 1
    assert topo.route_cache_hits == 1


def test_route_cache_invalidated_by_construction():
    topo = build_two_dc()
    cached = topo.route("e1", "e2")
    topo.add_host("e3", "east")
    fresh = topo.route("e1", "e2")
    assert fresh is not cached
    assert [link.name for link in fresh] == [link.name for link in cached]
    topo.set_gateway("east", 100 * MBPS)
    assert topo.route("e1", "w1")[1].name == "gw:east:out"


def test_route_cache_preserves_capacity_mutations():
    """Jitter mutates Link objects in place; cached routes must see it."""
    topo = build_two_dc()
    route = topo.route("e1", "w1")
    topo.wan_link("east", "west").set_capacity(42 * MBPS)
    wan = [link for link in topo.route("e1", "w1") if link.is_wan][0]
    assert wan.capacity == 42 * MBPS
    assert topo.route("e1", "w1") is route
