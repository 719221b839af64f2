"""Property-based tests of the cache simulators (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.assoc import miss_mask_assoc
from repro.cache.assoc_vec import miss_mask_assoc_vec
from repro.cache.streaming import StreamingDirectCache
from tests.cache.test_direct import naive_direct

geometries = st.sampled_from(
    [(256, 16), (512, 32), (1024, 32), (2048, 64), (4096, 32)]
)
traces = st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=300)


class TestDirectMapped:
    @given(trace=traces, geom=geometries)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_equals_naive(self, trace, geom):
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc_vec(addrs, size, line, 1),
            naive_direct(addrs, size, line),
        )

    @given(trace=traces, geom=geometries)
    @settings(max_examples=60, deadline=None)
    def test_assoc1_equals_direct(self, trace, geom):
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        np.testing.assert_array_equal(
            miss_mask_assoc(addrs, size, line, 1),
            naive_direct(addrs, size, line),
        )

    @given(trace=traces, geom=geometries, assoc=st.sampled_from([2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_higher_associativity_never_more_misses_fullyassoc(
        self, trace, geom, assoc
    ):
        """LRU inclusion: on a *fully-associative* cache, growing the way
        count (capacity) never adds misses.  (Same-set-count comparisons
        can legitimately invert -- Belady anomalies need FIFO -- but LRU
        stack inclusion guarantees monotonicity at a fixed set count of 1.)"""
        size, line = geom
        addrs = np.array(trace, dtype=np.int64)
        ways_small = size // line
        small = miss_mask_assoc(addrs, size, line, ways_small).sum()
        big = miss_mask_assoc(addrs, assoc * size, line, assoc * ways_small).sum()
        assert big <= small

    @given(
        trace=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200),
        cut=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_split_invariance(self, trace, cut):
        addrs = np.array(trace, dtype=np.int64)
        cut = min(cut, addrs.size)
        mono = naive_direct(addrs, 512, 32)
        cache = StreamingDirectCache(512, 32)
        part = np.concatenate([cache.feed(addrs[:cut]), cache.feed(addrs[cut:])])
        np.testing.assert_array_equal(part, mono)

    @given(trace=traces)
    @settings(max_examples=40, deadline=None)
    def test_cold_misses_lower_bound(self, trace):
        addrs = np.array(trace, dtype=np.int64)
        misses = int(miss_mask_assoc_vec(addrs, 1024, 32, 1).sum())
        unique_lines = len({a // 32 for a in trace})
        assert misses >= unique_lines  # every distinct line faults at least once
        assert misses <= len(trace)
