"""CacheManager semantics."""

from repro.scheduler.cache import CacheManager


def test_lookup_miss_then_hit():
    cache = CacheManager()
    assert cache.lookup(1, 0) is None
    cache.put(1, 0, "host-a", [1, 2], 16.0)
    entry = cache.lookup(1, 0)
    assert entry is not None
    assert entry.host == "host-a"
    assert entry.records == [1, 2]
    assert cache.hits == 1
    assert cache.misses == 1


def test_first_writer_wins():
    cache = CacheManager()
    cache.put(1, 0, "host-a", [1], 8.0)
    cache.put(1, 0, "host-b", [2], 8.0)
    assert cache.location(1, 0) == "host-a"
    assert cache.lookup(1, 0).records == [1]


def test_partitions_are_independent():
    cache = CacheManager()
    cache.put(1, 0, "a", [], 0.0)
    cache.put(1, 1, "b", [], 0.0)
    cache.put(2, 0, "c", [], 0.0)
    assert cache.entry_count == 3
    assert cache.location(1, 1) == "b"
    assert cache.location(2, 0) == "c"
    assert cache.location(2, 1) is None
