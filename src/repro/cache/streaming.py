"""Streaming (chunk-at-a-time) cache simulation.

Large programs are traced as a sequence of NumPy chunks
(:mod:`repro.trace.generator`); these simulators carry cache state between
chunks so whole-program miss counts are identical to simulating the
concatenated trace, with bounded memory.

Every level, direct-mapped or k-way, carries a ``(num_sets, k)`` LRU tag
matrix (:class:`repro.cache.assoc_vec.AssocLRUState`; ``k = 1`` for a
direct-mapped level): chunk classification is fully vectorized, and the
carried stacks are replayed as virtual leading accesses so chunked
simulation stays byte-identical to one-shot replay.
:class:`SequentialAssocCache` keeps the one-access-at-a-time reference
model around as the oracle the vectorized path is property-tested against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.assoc import replay_lru
from repro.cache.assoc_vec import AssocLRUState
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.stats import LevelStats, SimulationResult
from repro.errors import SimulationError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

__all__ = [
    "StreamingDirectCache",
    "StreamingAssocCache",
    "SequentialAssocCache",
    "StreamingHierarchy",
]


class StreamingAssocCache:
    """k-way LRU cache with persistent state (vectorized classification).

    Thin counting wrapper around :class:`repro.cache.assoc_vec.AssocLRUState`;
    byte-identical to :class:`SequentialAssocCache` on every chunking.
    """

    def __init__(self, size: int, line_size: int, associativity: int):
        self._state = AssocLRUState(size, line_size, associativity)
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = self._state.num_sets
        self.accesses = 0
        self.misses = 0

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Classify one chunk; returns its miss mask and updates LRU state.

        Per-chunk timing of the vectorized classifier (every
        associativity, direct-mapped included) lands in the
        ``cache.assoc.chunk_seconds`` histogram while a tracer is active.
        """
        tracer = get_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        miss = self._state.feed(addresses)
        self.accesses += int(miss.size)
        self.misses += int(np.count_nonzero(miss))
        if tracer.enabled:
            get_metrics().histogram("cache.assoc.chunk_seconds").observe(
                time.perf_counter() - t0
            )
        return miss


class StreamingDirectCache(StreamingAssocCache):
    """Direct-mapped cache with persistent state: the 1-way LRU case.

    A direct-mapped cache *is* a 1-way LRU cache, so this is
    :class:`StreamingAssocCache` at associativity 1; it exists so the
    level type a hierarchy builds still names the paper's cache model.
    """

    def __init__(self, size: int, line_size: int):
        super().__init__(size, line_size, 1)


class SequentialAssocCache:
    """k-way LRU cache with persistent state (sequential reference replay).

    The streaming form of the :func:`repro.cache.assoc.replay_lru` oracle:
    one access at a time, obviously correct, slow.  Kept as the ground
    truth that :class:`StreamingAssocCache` is property-tested against.
    """

    def __init__(self, size: int, line_size: int, associativity: int):
        if (
            line_size <= 0
            or size <= 0
            or associativity <= 0
            or size % (line_size * associativity) != 0
        ):
            raise SimulationError(
                f"invalid geometry: size={size}, line_size={line_size}, "
                f"assoc={associativity}"
            )
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = size // (line_size * associativity)
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Classify one chunk; returns its miss mask and updates LRU state."""
        addresses = np.asarray(addresses, dtype=np.int64)
        miss = np.zeros(addresses.size, dtype=bool)
        if addresses.size and addresses.min() < 0:
            raise SimulationError("trace contains negative addresses")
        lines = (addresses // self.line_size).tolist()
        replay_lru(lines, self.num_sets, self.associativity, self._sets, miss)
        self.accesses += int(addresses.size)
        self.misses += int(miss.sum())
        return miss


def _make_level(cfg: CacheConfig):
    if cfg.is_direct_mapped:
        return StreamingDirectCache(cfg.size, cfg.line_size)
    return StreamingAssocCache(cfg.size, cfg.line_size, cfg.associativity)


class StreamingHierarchy:
    """Multi-level streaming simulation: feed chunks, then read the result.

    Pass a :class:`repro.obs.timeline.Timeline` to also accumulate
    windowed per-level telemetry: ``feed`` then splits each chunk at
    window boundaries (re-reading ``timeline.window_refs`` per slice,
    since coalescing can widen it mid-run) and records each slice's
    per-level ``(accesses, misses)`` delta.  Window boundaries land at
    exactly the same reference positions regardless of how the trace was
    chunked, and every reference lands in exactly one window, so the
    timeline's totals equal :meth:`result`'s bit-for-bit -- the
    property ``tests/properties/test_property_timeline.py`` pins.
    """

    def __init__(self, config: HierarchyConfig, timeline=None):
        self.config = config
        self._levels = [_make_level(cfg) for cfg in config]
        self.total_refs = 0
        self.timeline = timeline
        # Resolved once: `feed` is the hot path and the registry lookup,
        # cheap as it is, should not recur per chunk.
        self._refs_counter = get_metrics().counter("cache.refs")

    def _feed_levels(self, stream: np.ndarray) -> None:
        for level in self._levels:
            mask = level.feed(stream)
            stream = stream[mask]

    def feed(self, addresses: np.ndarray) -> None:
        """Push one trace chunk through every level.

        Instrumentation stays at chunk granularity: one counter add per
        chunk always, one histogram observation per chunk only while a
        tracer is active -- nothing per reference, so the disabled
        overhead is a single branch (``benchmarks/test_bench_obs.py``
        guards this stays under 2% of simulator throughput).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        tracer = get_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        n = int(addresses.size)
        if self.timeline is None:
            self.total_refs += n
            self._feed_levels(addresses)
        else:
            pos = 0
            while pos < n:
                window = self.timeline.window_refs
                take = min(window - self.total_refs % window, n - pos)
                start_ref = self.total_refs
                before = [(lv.accesses, lv.misses) for lv in self._levels]
                self._feed_levels(addresses[pos:pos + take])
                self.timeline.record(
                    start_ref,
                    start_ref + take,
                    [(lv.accesses - acc, lv.misses - miss)
                     for lv, (acc, miss) in zip(self._levels, before)],
                )
                self.total_refs += take
                pos += take
        self._refs_counter.inc(n)
        if tracer.enabled:
            get_metrics().histogram("cache.chunk_seconds").observe(
                time.perf_counter() - t0
            )

    def feed_all(self, chunks) -> "StreamingHierarchy":
        """Consume an iterable of chunks; returns self for chaining."""
        for chunk in chunks:
            self.feed(chunk)
        return self

    def result(self) -> SimulationResult:
        """Aggregate statistics of everything fed so far."""
        return SimulationResult(
            total_refs=self.total_refs,
            levels=tuple(
                LevelStats(name=cfg.name, accesses=lv.accesses, misses=lv.misses)
                for cfg, lv in zip(self.config, self._levels)
            ),
        )
