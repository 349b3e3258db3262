"""Network topology: datacenters, hosts, and directed links.

The topology mirrors the paper's deployment (Fig. 6): a handful of
datacenters, each containing a few hosts.  Within a datacenter every host
has a full-duplex access link (modelled as separate *uplink* and
*downlink*) of roughly 1 Gbps.  Every ordered pair of datacenters is
connected by a dedicated WAN link whose capacity is much smaller (80–300
Mbps in the paper's measurements) and may fluctuate over time.

A route between two hosts is the ordered list of links a flow traverses:

* same host: no links (the fabric completes such transfers immediately);
* same datacenter: ``[src.uplink, dst.downlink]``;
* different datacenters: ``[src.uplink, wan(src_dc, dst_dc), dst.downlink]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, NoRouteError, UnknownHostError

# Unit helpers ---------------------------------------------------------------
GBPS = 1_000_000_000 / 8.0  # bytes per second in one gigabit per second
MBPS = 1_000_000 / 8.0  # bytes per second in one megabit per second

# Effective capacity of a partitioned link, in bytes/second.  The solver
# cannot represent a zero-capacity link (flows would never drain and the
# fair-share maths divides by capacity), so a partition pins the link to
# a floor so small that any real flow misses its health deadline and
# takes the retry/blacklist path instead.
PARTITION_CAPACITY_FLOOR = 1.0


class Link:
    """A directed link with a (mutable) capacity in bytes/second."""

    __slots__ = (
        "name",
        "capacity",
        "base_capacity",
        "nominal_capacity",
        "degrade_factor",
        "partitioned",
        "latency",
        "is_wan",
    )

    def __init__(
        self,
        name: str,
        capacity: float,
        latency: float = 0.0,
        is_wan: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"link {name}: capacity must be > 0")
        if latency < 0:
            raise ConfigurationError(f"link {name}: latency must be >= 0")
        self.name = name
        self.capacity = float(capacity)
        self.base_capacity = float(capacity)
        # What the owning bandwidth process (jitter / static pin) last
        # set, before any chaos degrade.  ``capacity`` — what the solver
        # sees — is ``nominal_capacity * degrade_factor``, so a jitter
        # resample and a chaos degrade compose instead of overwriting
        # each other.
        self.nominal_capacity = float(capacity)
        self.degrade_factor = 1.0
        self.partitioned = False
        self.latency = float(latency)
        self.is_wan = is_wan

    def _recompute_capacity(self) -> None:
        if self.partitioned:
            self.capacity = PARTITION_CAPACITY_FLOOR
        else:
            self.capacity = self.nominal_capacity * self.degrade_factor

    def set_capacity(self, capacity: float) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"link {self.name}: capacity must be > 0")
        self.nominal_capacity = float(capacity)
        self._recompute_capacity()

    def set_degrade_factor(self, factor: float) -> None:
        """Scale the effective capacity by ``factor`` (chaos degrade).

        Persists across ``set_capacity`` calls until reset to 1.0, so a
        concurrent jitter process cannot silently undo a degrade.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"link {self.name}: degrade factor must be > 0"
            )
        self.degrade_factor = float(factor)
        self._recompute_capacity()

    def set_partitioned(self, down: bool) -> None:
        """Drop (or heal) this directed link out of the fabric.

        While partitioned the effective capacity is pinned to
        ``PARTITION_CAPACITY_FLOOR`` no matter what jitter or degrade do;
        both keep updating ``nominal_capacity``/``degrade_factor`` so the
        heal restores whatever capacity the link would otherwise have.
        """
        self.partitioned = bool(down)
        self._recompute_capacity()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.capacity * 8 / 1e6:.0f} Mbps>"


class Datacenter:
    """A named datacenter holding a set of hosts.

    ``wan_in`` / ``wan_out`` are optional *gateway* links modelling the
    region's shared WAN border capacity: every flow entering (leaving)
    the datacenter crosses them in addition to its pair link, so a
    region's aggregate WAN throughput is bounded even when many distinct
    remote regions are involved.
    """

    __slots__ = ("name", "hosts", "wan_in", "wan_out")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hosts: List[Host] = []
        self.wan_in: Optional[Link] = None
        self.wan_out: Optional[Link] = None

    @property
    def host_names(self) -> List[str]:
        return [host.name for host in self.hosts]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Datacenter {self.name} hosts={len(self.hosts)}>"


class Host:
    """A worker machine: access links plus identity within a datacenter."""

    __slots__ = ("name", "datacenter", "uplink", "downlink")

    def __init__(self, name: str, datacenter: Datacenter, uplink: Link, downlink: Link) -> None:
        self.name = name
        self.datacenter = datacenter
        self.uplink = uplink
        self.downlink = downlink

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name}@{self.datacenter.name}>"


class Topology:
    """The full network graph plus route computation."""

    def __init__(self) -> None:
        self.datacenters: Dict[str, Datacenter] = {}
        self.hosts: Dict[str, Host] = {}
        self._wan_links: Dict[Tuple[str, str], Link] = {}
        # Routes are static per host pair (jitter changes capacities,
        # never paths), so they are computed once and memoized.  Any
        # construction call invalidates the cache.
        self._route_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._latency_cache: Dict[Tuple[str, str], float] = {}
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    def _invalidate_routes(self) -> None:
        self._route_cache.clear()
        self._latency_cache.clear()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_datacenter(self, name: str) -> Datacenter:
        if name in self.datacenters:
            raise ConfigurationError(f"duplicate datacenter {name!r}")
        datacenter = Datacenter(name)
        self.datacenters[name] = datacenter
        self._invalidate_routes()
        return datacenter

    def add_host(
        self,
        name: str,
        datacenter_name: str,
        access_bandwidth: float = 1.0 * GBPS,
        access_latency: float = 0.0005,
    ) -> Host:
        """Add a host with symmetric access links into ``datacenter_name``."""
        if name in self.hosts:
            raise ConfigurationError(f"duplicate host {name!r}")
        if datacenter_name not in self.datacenters:
            raise UnknownHostError(f"unknown datacenter {datacenter_name!r}")
        datacenter = self.datacenters[datacenter_name]
        uplink = Link(f"{name}:up", access_bandwidth, access_latency)
        downlink = Link(f"{name}:down", access_bandwidth, access_latency)
        host = Host(name, datacenter, uplink, downlink)
        datacenter.hosts.append(host)
        self.hosts[name] = host
        self._invalidate_routes()
        return host

    def connect_datacenters(
        self,
        src_name: str,
        dst_name: str,
        bandwidth: float,
        latency: float = 0.05,
        symmetric: bool = True,
    ) -> None:
        """Install WAN link(s) between two datacenters."""
        for missing in (src_name, dst_name):
            if missing not in self.datacenters:
                raise UnknownHostError(f"unknown datacenter {missing!r}")
        if src_name == dst_name:
            raise ConfigurationError("cannot connect a datacenter to itself")
        self._wan_links[(src_name, dst_name)] = Link(
            f"wan:{src_name}->{dst_name}", bandwidth, latency, is_wan=True
        )
        if symmetric:
            self._wan_links[(dst_name, src_name)] = Link(
                f"wan:{dst_name}->{src_name}", bandwidth, latency, is_wan=True
            )
        self._invalidate_routes()

    def set_gateway(
        self, datacenter_name: str, bandwidth: float, latency: float = 0.0
    ) -> None:
        """Install shared WAN ingress/egress gateway links for a DC."""
        if datacenter_name not in self.datacenters:
            raise UnknownHostError(f"unknown datacenter {datacenter_name!r}")
        datacenter = self.datacenters[datacenter_name]
        datacenter.wan_out = Link(
            f"gw:{datacenter_name}:out", bandwidth, latency, is_wan=False
        )
        datacenter.wan_in = Link(
            f"gw:{datacenter_name}:in", bandwidth, latency, is_wan=False
        )
        self._invalidate_routes()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise UnknownHostError(f"unknown host {name!r}") from None

    def datacenter_of(self, host_name: str) -> str:
        return self.host(host_name).datacenter.name

    def wan_link(self, src_dc: str, dst_dc: str) -> Link:
        try:
            return self._wan_links[(src_dc, dst_dc)]
        except KeyError:
            raise NoRouteError(
                f"no WAN link from {src_dc!r} to {dst_dc!r}"
            ) from None

    def wan_links(self) -> Iterable[Link]:
        return self._wan_links.values()

    def route(self, src_host: str, dst_host: str) -> List[Link]:
        """The ordered list of links a flow from src to dst traverses.

        Memoized: repeated calls for the same pair return the same list
        object — treat it as read-only.
        """
        key = (src_host, dst_host)
        cached = self._route_cache.get(key)
        if cached is not None:
            self.route_cache_hits += 1
            return cached
        self.route_cache_misses += 1
        route = self._compute_route(src_host, dst_host)
        self._route_cache[key] = route
        return route

    def _compute_route(self, src_host: str, dst_host: str) -> List[Link]:
        src = self.host(src_host)
        dst = self.host(dst_host)
        if src is dst:
            return []
        if src.datacenter is dst.datacenter:
            return [src.uplink, dst.downlink]
        wan = self.wan_link(src.datacenter.name, dst.datacenter.name)
        links = [src.uplink]
        if src.datacenter.wan_out is not None:
            links.append(src.datacenter.wan_out)
        links.append(wan)
        if dst.datacenter.wan_in is not None:
            links.append(dst.datacenter.wan_in)
        links.append(dst.downlink)
        return links

    def route_latency(self, src_host: str, dst_host: str) -> float:
        """Total propagation latency of the pair's route (memoized —
        link latencies are immutable, so this never goes stale)."""
        key = (src_host, dst_host)
        latency = self._latency_cache.get(key)
        if latency is None:
            latency = sum(link.latency for link in self.route(src_host, dst_host))
            self._latency_cache[key] = latency
        return latency

    def all_host_names(self) -> List[str]:
        return list(self.hosts)

    def hosts_in(self, datacenter_name: str) -> List[str]:
        if datacenter_name not in self.datacenters:
            raise UnknownHostError(f"unknown datacenter {datacenter_name!r}")
        return self.datacenters[datacenter_name].host_names

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the topology is fully connected at the WAN level."""
        names = list(self.datacenters)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                if (src, dst) not in self._wan_links:
                    raise ConfigurationError(
                        f"missing WAN link {src!r} -> {dst!r}"
                    )
        for datacenter in self.datacenters.values():
            if not datacenter.hosts:
                raise ConfigurationError(
                    f"datacenter {datacenter.name!r} has no hosts"
                )
