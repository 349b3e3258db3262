"""Stateful property test: the map-output record under random operation
mixes.

Hypothesis drives random sequences of registrations, relocations with
replicas, added replicas, durable PUTs, host losses and shuffle removals
against the :class:`MapOutputTracker` — through the backend's
``register_map_output`` / ``relocate_map_output``, the only place a
``MapStatus`` is built — while a dict model tracks where every copy of
every map output should live.  Any divergence is a bug with a minimal
reproducing sequence; two planted mutant trackers show the machine
catches a wrong promotion.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)
import hypothesis.strategies as st

from repro.errors import MapOutputMissingError
from repro.network.traffic_monitor import TrafficMonitor
from repro.shuffle.map_output_tracker import MapOutputTracker, ShuffleShard
from repro.shuffle.service import ShuffleBackend

SHUFFLES = [0, 1]
MAPS = 3
HOSTS = ["h0", "h1", "h2", "h3"]

host = st.sampled_from(HOSTS)
shuffle = st.sampled_from(SHUFFLES)
index = st.integers(0, MAPS - 1)


class MapOutputTrackerMachine(RuleBasedStateMachine):
    """MapOutputTracker vs a dict model: shuffle id -> {map index ->
    [host, sorted replica hosts, handed_off, durable_host, size]}."""

    tracker_class = MapOutputTracker

    def __init__(self):
        super().__init__()
        self.tracker = self.tracker_class()
        self.backend = ShuffleBackend()
        self.backend.bind(SimpleNamespace(
            map_output_tracker=self.tracker, traffic=TrafficMonitor()
        ))
        self.model = {}
        self.writes = 0

    def _shards(self):
        """Fresh shards whose size names the write that made them."""
        self.writes += 1
        return [ShuffleShard([self.writes], float(self.writes))]

    def _place(self, shuffle_id, map_index, host, replicas=(), handed_off=False):
        """Relocate through the backend, or expect the tracker to refuse
        a shuffle it does not know.  A durable copy outlives the record
        it replaces."""
        shards = self._shards()
        place = (shuffle_id, map_index, host, shards, replicas, handed_off)
        outputs = self.model.get(shuffle_id)
        if outputs is None:
            with pytest.raises(MapOutputMissingError):
                self.backend.relocate_map_output(*place)
            return
        self.backend.relocate_map_output(*place)
        previous = outputs.get(map_index)
        outputs[map_index] = [
            host,
            sorted(set(replicas) - {host}),
            handed_off,
            previous[3] if previous is not None else None,
            float(self.writes),
        ]

    @initialize()
    def register_shuffles(self):
        for shuffle_id in SHUFFLES:
            self.register_shuffle(shuffle_id)

    @rule(shuffle_id=shuffle)
    def register_shuffle(self, shuffle_id):
        self.backend.register_shuffle(shuffle_id, MAPS)
        self.model.setdefault(shuffle_id, {})

    @rule(shuffle_id=shuffle, map_index=index, host=host)
    def register(self, shuffle_id, map_index, host):
        """A map task's fresh output: one copy, where it ran."""
        self._place(shuffle_id, map_index, host)

    @rule(
        shuffle_id=shuffle,
        map_index=index,
        host=host,
        replicas=st.lists(host, min_size=1, max_size=3),
    )
    def relocate_with_replicas(self, shuffle_id, map_index, host, replicas):
        """A hand-off onto the worker tier (``replicas`` may repeat
        hosts or name ``host``; the record keeps neither)."""
        self._place(shuffle_id, map_index, host, replicas, handed_off=True)

    def _record(self, operation, shuffle_id, map_index, host):
        """The model's record, after ``operation`` ran on the tracker —
        or None, after checking the tracker refused a missing output."""
        record = self.model.get(shuffle_id, {}).get(map_index)
        if record is None:
            with pytest.raises(MapOutputMissingError):
                operation(shuffle_id, map_index, host)
            return None
        operation(shuffle_id, map_index, host)
        return record

    @rule(shuffle_id=shuffle, map_index=index, host=host)
    def add_replica(self, shuffle_id, map_index, host):
        record = self._record(
            self.tracker.add_replica, shuffle_id, map_index, host
        )
        if record is not None and host != record[0] and host not in record[1]:
            record[1] = sorted(record[1] + [host])

    @rule(shuffle_id=shuffle, map_index=index, host=host)
    def mark_durable(self, shuffle_id, map_index, host):
        """A PUT landed: the output has a durable copy, served from the
        store endpoint ``host`` (wherever its record points now)."""
        record = self._record(
            self.tracker.mark_durable, shuffle_id, map_index, host
        )
        if record is not None:
            record[3] = host

    @rule(host=host)
    def unregister_host(self, host):
        promoted, degraded, lost = [], [], []
        for shuffle_id in sorted(self.model):
            outputs = self.model[shuffle_id]
            for map_index in sorted(outputs):
                record = outputs[map_index]
                key = (shuffle_id, map_index)
                if host in record[1]:
                    record[1].remove(host)
                    degraded.append(key)
                elif record[0] == host and record[3] != host:
                    if record[3] is not None:
                        record[0] = record[3]
                        promoted.append(key)
                    elif record[1]:
                        record[0] = record[1].pop(0)
                        promoted.append(key)
                    else:
                        lost.append((key, record[2], record[4]))
                        del outputs[map_index]
        loss = self.tracker.unregister_host(host)
        assert loss.promoted == promoted
        assert loss.degraded == degraded
        assert [
            (key, status.handed_off, status.total_size)
            for key, status in loss.lost
        ] == lost

    @rule(shuffle_id=shuffle)
    def remove_shuffle(self, shuffle_id):
        self.backend.remove_shuffle(shuffle_id)
        self.model.pop(shuffle_id, None)

    @invariant()
    def records_match_model(self):
        tracker = self.tracker
        by_host = {}
        for shuffle_id in SHUFFLES:
            outputs = self.model.get(shuffle_id)
            assert tracker.is_registered(shuffle_id) == (outputs is not None)
            if outputs is None:
                with pytest.raises(MapOutputMissingError):
                    tracker.map_statuses(shuffle_id)
                continue
            assert tracker.is_complete(shuffle_id) == (len(outputs) == MAPS)
            records = [
                [s.host, s.replicas, s.handed_off, s.durable_host, s.total_size]
                for s in tracker.map_statuses(shuffle_id)
            ]
            assert records == [outputs[i] for i in sorted(outputs)]
            for map_index in range(MAPS):
                present = map_index in outputs
                assert tracker.has_map_output(shuffle_id, map_index) == present
            for record in outputs.values():
                by_host[record[0]] = by_host.get(record[0], 0.0) + record[4]
        assert tracker.bytes_by_host() == by_host


class ReplicaKeptTracker(MapOutputTracker):
    """Planted bug: a promoted replica stays among the survivors."""

    def unregister_host(self, host):
        loss = super().unregister_host(host)
        for key in loss.promoted:
            status = self.map_status(*key)
            status.replicas.insert(0, status.host)
        return loss


class PromotedOntoDeadHostTracker(MapOutputTracker):
    """Planted bug: promotion serves the output from the dead host."""

    def unregister_host(self, host):
        loss = super().unregister_host(host)
        for key in loss.promoted:
            self.map_status(*key).host = host
        return loss


TestMapOutputTrackerStateful = MapOutputTrackerMachine.TestCase
TestMapOutputTrackerStateful.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


@pytest.mark.parametrize(
    "tracker_class",
    [ReplicaKeptTracker, PromotedOntoDeadHostTracker],
    ids=lambda tracker_class: tracker_class.__name__,
)
def test_machine_fails_on_a_planted_mutant(tracker_class):
    machine = type(
        f"{tracker_class.__name__}Machine",
        (MapOutputTrackerMachine,),
        {"tracker_class": tracker_class},
    )
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=200,
                stateful_step_count=30,
                deadline=None,
                database=None,
                derandomize=True,
                phases=[Phase.generate],
                suppress_health_check=list(HealthCheck),
            ),
        )
