"""Stochastic bandwidth fluctuation on WAN links.

The paper measures EC2 inter-region capacity varying between roughly
80 Mbps and 300 Mbps over time (§V-A, citing Flutter and Bellini).  We
model each WAN link's capacity as a mean-reverting random walk sampled on
a fixed period: every ``period`` seconds the capacity moves a bounded
random step toward a fresh uniform target, clipped to ``[low, high]``.
This produces the temporally correlated "jitter" that inflates baseline
variance in Fig. 7 while staying simple and fully seeded.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.config import JitterSpec
from repro.network.fabric import NetworkFabric
from repro.network.topology import PARTITION_CAPACITY_FLOOR, Link
from repro.simulation.kernel import Simulator
from repro.simulation.random_source import RandomSource


class BandwidthJitter:
    """A simulation process that perturbs WAN link capacities over time."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        links: Iterable[Link],
        spec: JitterSpec,
        randomness: Optional[RandomSource] = None,
    ) -> None:
        """Of ``links``, only those marked ``is_wan`` jitter."""
        spec.validate()
        self.sim = sim
        self.fabric = fabric
        self.links = [link for link in links if link.is_wan]
        self.spec = spec
        self.randomness = randomness if randomness is not None else RandomSource(0)
        self._running = False

    def start(self) -> None:
        """Initialise capacities and begin the periodic resampling loop."""
        if self._running:
            return
        self._running = True
        for link in self.links:
            link.set_capacity(
                self.randomness.uniform(
                    f"jitter:init:{link.name}", self.spec.low, self.spec.high
                )
            )
        self.sim.spawn(self._loop(), name="bandwidth-jitter")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        low = self.spec.low
        high = self.spec.high
        span = high - low
        max_step = span * self.spec.max_step_fraction
        # Each link with its ``jitter:target:<link>`` stream's
        # ``random``, bound once so a period costs no name formatting
        # or stream lookup.
        walk = [
            (link, self.randomness.stream(f"jitter:target:{link.name}").random)
            for link in self.links
        ]
        while self._running:
            yield self.sim.timeout(self.spec.period)
            if not self._running:
                return
            for link, draw in walk:
                # Walk the *nominal* capacity: a concurrent chaos
                # degrade scales the effective capacity underneath and
                # must neither perturb the walk nor be undone by it.
                # ``low + span * draw()`` is ``Random.uniform(low,
                # high)`` on the link's named stream.
                nominal = link.nominal_capacity
                delta = low + span * draw() - nominal
                if delta > max_step:
                    delta = max_step
                elif delta < -max_step:
                    delta = -max_step
                nominal += delta
                if nominal < low:
                    nominal = low
                elif nominal > high:
                    nominal = high
                # Link.set_capacity, inlined (the clamp keeps it > 0):
                # partition and degrade compose exactly as there.
                link.nominal_capacity = nominal
                link.capacity = (
                    PARTITION_CAPACITY_FLOOR
                    if link.partitioned
                    else nominal * link.degrade_factor
                )
            # Scoped notification: the fabric re-solves only components
            # carried by the perturbed links, and skips the solve
            # entirely when every one of them is idle.  All links are
            # resampled above regardless, keeping the random-walk state
            # (and hence determinism) independent of flow activity.
            self.fabric.notify_capacity_change(changed_links=self.links)

