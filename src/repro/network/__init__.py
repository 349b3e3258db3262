"""Flow-level wide-area network model.

The model has three layers:

* :mod:`repro.network.topology` — datacenters, hosts, and directed links
  (host access links plus one WAN link per ordered datacenter pair).
* :mod:`repro.network.fair_share` — the progressive-filling max-min fair
  bandwidth allocator, shared by all concurrent flows.
* :mod:`repro.network.fabric` — the :class:`NetworkFabric` simulation
  component: start a transfer, get an event that fires on completion, with
  rates recomputed whenever flows start/finish or link capacity jitters.

Cross-datacenter traffic accounting (Fig. 8 of the paper) lives in
:mod:`repro.network.traffic_monitor`; the stochastic WAN bandwidth
fluctuation of §V-A lives in :mod:`repro.network.jitter`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.network.topology": ("Datacenter", "Host", "Link", "Topology"),
    "repro.network.fair_share": ("max_min_fair_rates", "verify_allocation"),
    "repro.network.fabric": ("Flow", "NetworkFabric"),
    "repro.network.incremental": ("IncrementalFairShare",),
    "repro.network.jitter": ("BandwidthJitter", "JitterSpec"),
    "repro.network.traffic_monitor": ("TrafficMonitor",),
})
