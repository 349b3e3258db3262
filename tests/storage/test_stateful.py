"""Stateful property tests: metadata stores under random operation mixes.

Hypothesis drives random sequences of operations against the DFS and the
cache manager while a simple Python model tracks the expected state;
any divergence is a bug with a minimal reproducing sequence.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
import hypothesis.strategies as st

from repro.errors import (
    BlockNotFoundError,
    FileExistsInDFSError,
    FileNotFoundInDFSError,
    StorageError,
)
from repro.scheduler.cache import CacheManager
from repro.storage import DistributedFileSystem

PATHS = [f"/{name}" for name in "abcdefgh"]
HOSTS = ["h0", "h1", "h2"]
REPLICATION = 2


def model_placement(candidates, index):
    """The first REPLICATION distinct hosts of the candidate list
    rotated to start at ``index``."""
    start = index % len(candidates)
    rotated = candidates[start:] + candidates[:start]
    return list(dict.fromkeys(rotated))[:REPLICATION]


class DistributedFileSystemMachine(RuleBasedStateMachine):
    """DistributedFileSystem vs a dict-of-lists model: path -> [(block
    id, live replica hosts)]."""

    def __init__(self):
        super().__init__()
        self.dfs = DistributedFileSystem(HOSTS, replication=REPLICATION)
        self.model = {}
        self.deleted = []
        self.block_counter = 0

    @rule(
        path=st.sampled_from(PATHS),
        blocks=st.integers(0, 3),
        hosts=st.lists(st.sampled_from(HOSTS), min_size=1, max_size=4),
    )
    def write(self, path, blocks, hosts):
        partitions = [[path, i] for i in range(blocks)]
        if path in self.model:
            with pytest.raises(FileExistsInDFSError):
                self.dfs.write_file(path, partitions, [1.0] * blocks, hosts)
            return
        block_ids = self.dfs.write_file(
            path, partitions, [1.0] * blocks, hosts
        )
        expected = [f"{path}#blk{self.block_counter + i}" for i in range(blocks)]
        assert block_ids == expected
        self.block_counter += blocks
        self.model[path] = [
            (block_id, model_placement(hosts, i))
            for i, block_id in enumerate(block_ids)
        ]

    @rule(path=st.sampled_from(PATHS), host=st.sampled_from(HOSTS))
    def write_to_unknown_host(self, path, host):
        with pytest.raises(StorageError):
            self.dfs.write_file(path, [[1]], [1.0], [host, "ghost"])

    @rule(path=st.sampled_from(PATHS))
    def delete(self, path):
        if path in self.model:
            self.dfs.delete_file(path)
            self.deleted.extend(b for b, _h in self.model.pop(path))
        else:
            with pytest.raises(FileNotFoundInDFSError):
                self.dfs.delete_file(path)

    @rule(host=st.sampled_from(HOSTS))
    def remove_host(self, host):
        lost = []
        for blocks in self.model.values():
            for block_id, hosts in blocks:
                if host in hosts:
                    hosts.remove(host)
                    if not hosts:
                        lost.append(block_id)
        assert self.dfs.remove_host(host) == lost

    @invariant()
    def namespace_matches_model(self):
        for path in PATHS:
            if path not in self.model:
                with pytest.raises(FileNotFoundInDFSError):
                    self.dfs.file_blocks(path)
        for path, blocks in self.model.items():
            assert self.dfs.file_blocks(path) == [b for b, _h in blocks]
            for index, (block_id, hosts) in enumerate(blocks):
                assert self.dfs.block_locations(block_id) == hosts
                if hosts:
                    assert self.dfs.read_block(block_id).records == [path, index]
                else:
                    with pytest.raises(BlockNotFoundError):
                        self.dfs.read_block(block_id)
        for block_id in self.deleted:
            with pytest.raises(BlockNotFoundError):
                self.dfs.block_locations(block_id)


class CacheMachine(RuleBasedStateMachine):
    """CacheManager vs a dict model with first-writer-wins semantics."""

    def __init__(self):
        super().__init__()
        self.cache = CacheManager()
        self.model = {}

    @rule(
        rdd=st.integers(0, 5),
        partition=st.integers(0, 3),
        host=st.sampled_from(["h0", "h1"]),
        size=st.floats(0, 100),
    )
    def put(self, rdd, partition, host, size):
        self.cache.put(rdd, partition, host, [rdd, partition], size)
        self.model.setdefault((rdd, partition), (host, size))

    @rule(rdd=st.integers(0, 5), partition=st.integers(0, 3))
    def lookup(self, rdd, partition):
        entry = self.cache.lookup(rdd, partition)
        expected = self.model.get((rdd, partition))
        if expected is None:
            assert entry is None
        else:
            assert entry is not None
            assert (entry.host, entry.size_bytes) == expected

    @rule(host=st.sampled_from(["h0", "h1"]))
    def evict(self, host):
        self.cache.evict_host(host)
        self.model = {
            key: value for key, value in self.model.items() if value[0] != host
        }

    @invariant()
    def counts_match(self):
        assert self.cache.entry_count == len(self.model)
        for (rdd, partition), (host, _size) in self.model.items():
            assert self.cache.location(rdd, partition) == host


TestDistributedFileSystemStateful = DistributedFileSystemMachine.TestCase
TestDistributedFileSystemStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)

TestCacheStateful = CacheMachine.TestCase
TestCacheStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
