"""MapOutputTracker and the shard/staging stores."""

import pytest

from repro.errors import MapOutputMissingError
from repro.shuffle import (
    MapOutputTracker,
    MapStatus,
    ShuffleStore,
    TransferTracker,
)
from repro.shuffle.stores import ShuffleShard


# ----------------------------------------------------------------------
# MapOutputTracker
# ----------------------------------------------------------------------
def tracked(num_maps=3, num_reduces=2):
    tracker = MapOutputTracker()
    tracker.register_shuffle(7, num_maps=num_maps)
    return tracker


def test_registration_and_completion():
    tracker = tracked(num_maps=2)
    assert not tracker.is_complete(7)
    tracker.register_map_output(7, MapStatus(0, "h0", [10.0, 20.0]))
    assert not tracker.is_complete(7)
    tracker.register_map_output(7, MapStatus(1, "h1", [5.0, 0.0]))
    assert tracker.is_complete(7)


def test_register_shuffle_idempotent():
    tracker = tracked(num_maps=1)
    tracker.register_map_output(7, MapStatus(0, "h0", [1.0]))
    tracker.register_shuffle(7, num_maps=1)  # must not wipe outputs
    assert tracker.is_complete(7)


def test_map_statuses_sorted_by_index():
    tracker = tracked()
    tracker.register_map_output(7, MapStatus(2, "h2", [1.0, 1.0]))
    tracker.register_map_output(7, MapStatus(0, "h0", [1.0, 1.0]))
    statuses = tracker.map_statuses(7)
    assert [s.map_index for s in statuses] == [0, 2]


def test_unknown_shuffle_raises():
    tracker = MapOutputTracker()
    with pytest.raises(MapOutputMissingError):
        tracker.map_statuses(99)
    with pytest.raises(MapOutputMissingError):
        tracker.register_map_output(99, MapStatus(0, "h", [1.0]))
    assert not tracker.is_complete(99)


def test_reducer_input_by_host_sums_shards():
    tracker = tracked(num_maps=2)
    tracker.register_map_output(7, MapStatus(0, "h0", [10.0, 20.0]))
    tracker.register_map_output(7, MapStatus(1, "h0", [5.0, 1.0]))
    assert tracker.reducer_input_by_host(7, 0) == {"h0": 15.0}
    assert tracker.reducer_input_by_host(7, 1) == {"h0": 21.0}


def test_reducer_preferred_hosts_threshold():
    tracker = tracked(num_maps=4)
    tracker.register_map_output(7, MapStatus(0, "big", [80.0, 0.0]))
    tracker.register_map_output(7, MapStatus(1, "s1", [10.0, 0.0]))
    tracker.register_map_output(7, MapStatus(2, "s2", [5.0, 0.0]))
    tracker.register_map_output(7, MapStatus(3, "s3", [5.0, 0.0]))
    prefs = tracker.reducer_preferred_hosts(7, 0, fraction=0.2)
    assert prefs == ["big"]
    # Scattered input: nothing passes the threshold.
    assert tracker.reducer_preferred_hosts(7, 0, fraction=0.9) == []
    # Empty reducer: no preference at all.
    assert tracker.reducer_preferred_hosts(7, 1, fraction=0.2) == []


def test_output_by_datacenter():
    tracker = tracked(num_maps=2)
    tracker.register_map_output(7, MapStatus(0, "h0", [10.0, 10.0]))
    tracker.register_map_output(7, MapStatus(1, "h1", [30.0, 0.0]))
    by_dc = tracker.total_output_by_datacenter(
        7, {"h0": "east", "h1": "west"}
    )
    assert by_dc == {"east": 20.0, "west": 30.0}


def test_unregister_shuffle():
    tracker = tracked(num_maps=1)
    tracker.register_map_output(7, MapStatus(0, "h0", [1.0]))
    tracker.unregister_shuffle(7)
    assert not tracker.is_complete(7)


# ----------------------------------------------------------------------
# ShuffleStore
# ----------------------------------------------------------------------
def test_shuffle_store_roundtrip():
    store = ShuffleStore()
    shards = [ShuffleShard([("a", 1)], 10.0), ShuffleShard([], 0.0)]
    store.put_map_output(1, 0, "h0", shards)
    assert store.get_shard(1, 0, 0).records == [("a", 1)]
    assert store.get_shard(1, 0, 1).size_bytes == 0.0
    assert store.bytes_by_host() == {"h0": 10.0}


def test_shuffle_store_reregistration_overwrites():
    store = ShuffleStore()
    store.put_map_output(1, 0, "h0", [ShuffleShard([1], 1.0)])
    store.put_map_output(1, 0, "h9", [ShuffleShard([2], 2.0)])
    assert store.bytes_by_host() == {"h9": 2.0}
    assert store.get_shard(1, 0, 0).records == [2]


def test_shuffle_store_missing_raises():
    store = ShuffleStore()
    with pytest.raises(MapOutputMissingError):
        store.get_shard(1, 0, 0)


def test_shuffle_store_remove_shuffle():
    store = ShuffleStore()
    store.put_map_output(1, 0, "h0", [ShuffleShard([1], 1.0)])
    store.put_map_output(2, 0, "h0", [ShuffleShard([2], 1.0)])
    store.remove_shuffle(1)
    with pytest.raises(MapOutputMissingError):
        store.get_shard(1, 0, 0)
    assert store.get_shard(2, 0, 0).records == [2]


# ----------------------------------------------------------------------
# TransferTracker
# ----------------------------------------------------------------------
def test_transfer_tracker_roundtrip():
    tracker = TransferTracker()
    tracker.stage_partition(5, 0, "h0", [1, 2], 16.0)
    staged = tracker.try_get(5, 0)
    assert staged.host == "h0"
    assert staged.records == [1, 2]
    assert tracker.try_get(5, 1) is None


def test_transfer_tracker_remove():
    tracker = TransferTracker()
    tracker.stage_partition(5, 0, "h0", [], 0.0)
    tracker.stage_partition(6, 0, "h0", [], 0.0)
    tracker.remove_transfer(5)
    assert tracker.try_get(5, 0) is None
    assert tracker.try_get(6, 0) is not None
