"""Stateful property tests: metadata stores under random operation mixes.

Hypothesis drives random sequences of operations against the namenode
and cache manager while a simple Python model tracks the expected state;
any divergence is a bug with a minimal reproducing sequence.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.errors import (
    FileExistsInDFSError,
    FileNotFoundInDFSError,
)
from repro.scheduler.cache import CacheManager
from repro.storage.namenode import NameNode


class NameNodeMachine(RuleBasedStateMachine):
    """NameNode vs a dict-of-lists model."""

    paths = Bundle("paths")

    def __init__(self):
        super().__init__()
        self.namenode = NameNode()
        self.model = {}
        self.block_counter = 0

    @rule(target=paths, name=st.sampled_from("abcdefgh"))
    def create(self, name):
        path = f"/{name}"
        if path in self.model:
            with pytest.raises(FileExistsInDFSError):
                self.namenode.create_file(path)
        else:
            self.namenode.create_file(path)
            self.model[path] = []
        return path

    @rule(path=paths, host=st.sampled_from(["h0", "h1", "h2"]))
    def append_block(self, path, host):
        block_id = f"blk{self.block_counter}"
        self.block_counter += 1
        if path in self.model:
            self.namenode.append_block(path, block_id, [host])
            self.model[path].append((block_id, host))
        else:
            with pytest.raises(FileNotFoundInDFSError):
                self.namenode.append_block(path, block_id, [host])

    @rule(path=paths)
    def delete(self, path):
        if path in self.model:
            removed = self.namenode.delete_file(path)
            assert removed == [b for b, _h in self.model[path]]
            del self.model[path]
        else:
            with pytest.raises(FileNotFoundInDFSError):
                self.namenode.delete_file(path)

    @invariant()
    def namespace_matches_model(self):
        for path in (f"/{name}" for name in "abcdefgh"):
            if path not in self.model:
                with pytest.raises(FileNotFoundInDFSError):
                    self.namenode.file_blocks(path)
        for path, blocks in self.model.items():
            assert self.namenode.file_blocks(path) == [b for b, _h in blocks]
            for block_id, host in blocks:
                assert self.namenode.block_locations(block_id) == [host]


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


TestNameNodeStateful = NameNodeMachine.TestCase
TestNameNodeStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)

TestCacheStateful = CacheMachine.TestCase
TestCacheStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
