"""Miss-cost weighting for the paper's profitability tests.

Fusion profitability compares reuse gains "scaled by the cost of cache
misses at that level" (Section 4); :class:`MissCostModel` holds those
per-level costs.  Miss *counts* come from the closed-form predictor
(:mod:`repro.model.predictor`), which carries out Section 6.4's "the
compiler can predict relative cache miss rates fairly accurately by
analyzing group reuse".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import HierarchyConfig

__all__ = ["MissCostModel"]


@dataclass(frozen=True)
class MissCostModel:
    """Per-level miss penalties derived from a hierarchy's cycle costs.

    ``l1_miss_cost`` is what an L1 miss that hits L2 costs; ``l2_miss_cost``
    what a reference going to memory costs (both beyond the L1 hit cost
    every reference pays).  Fusion profitability compares reuse gains
    "scaled by the cost of cache misses at that level" (Section 4).
    """

    l1_miss_cost: float
    l2_miss_cost: float

    @classmethod
    def from_hierarchy(cls, hierarchy: HierarchyConfig) -> "MissCostModel":
        return cls(
            l1_miss_cost=hierarchy.miss_cycles(0),
            l2_miss_cost=hierarchy.miss_cycles(len(hierarchy) - 1),
        )

    def weighted(self, l1_misses: float, l2_misses: float) -> float:
        """Total penalty cycles for the given miss counts."""
        return l1_misses * self.l1_miss_cost + l2_misses * self.l2_miss_cost
