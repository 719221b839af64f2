"""Multi-level hierarchy simulation.

The hierarchy is modeled the way the paper reports it: the L1 cache sees
the full reference stream; each lower level sees exactly the stream of
references that missed the level above (a blocking, no-prefetch,
write-allocate-agnostic model -- reads and writes are both just
"references", as in the paper's simulations).

:class:`CacheHierarchy` is the whole-trace form of
:class:`repro.cache.streaming.StreamingHierarchy`: it feeds the trace as
one chunk through the same per-level classifiers.
"""

from __future__ import annotations

import numpy as np

from repro.cache import streaming
from repro.cache.config import HierarchyConfig
from repro.cache.stats import LevelStats, SimulationResult
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

__all__ = ["CacheHierarchy"]


class CacheHierarchy:
    """Simulates address traces through a :class:`HierarchyConfig`.

    Example
    -------
    >>> from repro.cache import CacheHierarchy, ultrasparc_i
    >>> import numpy as np
    >>> hier = CacheHierarchy(ultrasparc_i())
    >>> result = hier.simulate(np.arange(0, 1 << 16, 4))
    >>> round(result.miss_rate("L1"), 3)
    0.125
    """

    def __init__(self, config: HierarchyConfig):
        self.config = config

    def simulate(self, addresses: np.ndarray) -> SimulationResult:
        """Simulate the trace and return per-level statistics.

        One ``cache.simulate`` span per call while tracing; the trace's
        reference count and each level's access/miss totals feed the
        ``cache.*`` counters of the metrics registry either way.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        total = int(addresses.size)
        with get_tracer().span("cache.simulate", cat="cache", refs=total):
            masks = self.miss_masks(addresses)
        levels = tuple(
            LevelStats(name=cfg.name, accesses=int(mask.size), misses=int(mask.sum()))
            for cfg, mask in zip(self.config, masks)
        )
        m = get_metrics()
        m.counter("cache.refs").inc(total)
        for lv in levels:
            m.counter(f"cache.{lv.name}.accesses").inc(lv.accesses)
            m.counter(f"cache.{lv.name}.misses").inc(lv.misses)
        return SimulationResult(total_refs=total, levels=levels)

    def miss_masks(self, addresses: np.ndarray) -> list[np.ndarray]:
        """Per-level miss masks, each the length of that level's access stream.

        ``masks[0]`` has one entry per reference; ``masks[1]`` one entry per
        L1 miss; and so on.  Useful for attributing misses to individual
        references in analyses and tests.
        """
        stream = np.asarray(addresses, dtype=np.int64)
        masks: list[np.ndarray] = []
        for cfg in self.config:
            mask = streaming._make_level(cfg).feed(stream)
            masks.append(mask)
            stream = stream[mask]
        return masks

    def cycles(self, addresses: np.ndarray) -> float:
        """Estimated memory-system cycles for the trace (see ``SimulationResult.cycles``)."""
        return self.simulate(addresses).cycles(self.config)
