"""Trace-driven multi-level cache simulator.

This package is the reproduction's stand-in for the cache simulator used in
Section 6.1 of the paper.  It simulates an inclusive hierarchy of
direct-mapped or set-associative caches over an address trace: the L1 cache
sees every reference, and each lower level sees only the miss stream of the
level above it.  Miss rates are reported relative to the *total* number of
references, matching the paper's normalization.

One production kernel classifies every level: the vectorized k-way LRU
model of :mod:`repro.cache.assoc_vec` (a direct-mapped cache is its
1-way case), so full-program traces of tens of millions of references
simulate in seconds.  A sequential one-access-at-a-time LRU model
(:mod:`repro.cache.assoc`) is kept as the ground-truth oracle the
vectorized kernel is property-tested against.  See ``docs/simulators.md``
for both.
"""

from repro.cache.config import (
    CacheConfig,
    HierarchyConfig,
    alpha_21164,
    ultrasparc_i,
)
from repro.cache.assoc import simulate_assoc
from repro.cache.assoc_vec import AssocLRUState, miss_mask_assoc_vec, simulate_assoc_vec
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.stats import LevelStats, SimulationResult
from repro.cache.stackdist import (
    MissTaxonomy,
    classify_misses,
    fully_associative_miss_mask,
    reuse_distances,
)
from repro.cache.streaming import StreamingHierarchy

__all__ = [
    "CacheConfig",
    "HierarchyConfig",
    "CacheHierarchy",
    "LevelStats",
    "SimulationResult",
    "simulate_assoc",
    "simulate_assoc_vec",
    "miss_mask_assoc_vec",
    "AssocLRUState",
    "ultrasparc_i",
    "alpha_21164",
    "MissTaxonomy",
    "classify_misses",
    "fully_associative_miss_mask",
    "reuse_distances",
    "StreamingHierarchy",
]
