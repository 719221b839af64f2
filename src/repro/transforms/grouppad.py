"""GROUPPAD: padding that preserves group-temporal reuse (Section 3.2).

GROUPPAD inserts larger pads than PAD so the layout both avoids severe
conflicts and keeps group-reuse arcs exploitable on the cache: it
"considers for each variable a limited number of positions relative to
other variables, counts for each position the number of references
successfully exploiting group reuse at the L1 cache, and selects the
position maximizing this value."

The multi-level recursion (Section 3.2.2): after placing variables for the
L1 cache, later phases re-run the search for each lower level using *only
pads that are multiples of the previous level's cache size* -- adding
``m * S1`` to a base address changes nothing modulo S1, so the L1 layout
(conflicts and exploited arcs alike) is preserved exactly while group
reuse is re-optimized for the larger cache.

Every position is scored without building its layout.  Setting the pad
before array *i* to ``pad_i + delta`` shifts the base of *i* and of every
later array by the same ``delta`` and leaves earlier arrays where they
are.  So for K candidate pads the bases are one layout's bases plus a
K-vector of shifts on the arrays at or after *i*, and each dot-to-arc or
reference-pair distance is ``gap + drift * delta`` with a fixed ``gap``
and ``drift`` in {-1, 0, 1}.  The severe-conflict test (shared with PAD
and MULTILVLPAD, :func:`repro.transforms.pad._severe_conflicts`) and the
exploited-arc count then run once over all K positions as NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.nestinfo import nest_analysis
from repro.cache.config import HierarchyConfig
from repro.errors import TransformError
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.transforms.pad import _PadCandidates, _pair_deltas, _severe_conflicts

__all__ = ["grouppad", "grouppad_recursive"]


@dataclass(frozen=True)
class _NestInfo:
    """Layout-independent geometry of one nest at its canonical iteration."""

    dots: tuple[tuple[str, int], ...]  # (array, offset-within-array)
    arcs: tuple[tuple[str, int, int], ...]  # (array, trailing offset, span)


def _nest_infos(program: Program) -> list[_NestInfo]:
    infos = []
    for nest in program.nests:
        info = nest_analysis(program, nest)
        infos.append(_NestInfo(
            dots=tuple((r.array, c) for r, c in zip(info.refs, info.canonical)),
            arcs=tuple(
                (arc.array, info.canonical[t], arc.distance_bytes)
                for arc, (t, _) in zip(info.arcs, info.arc_refs)
            ),
        ))
    return infos


def _exploited_counts(
    infos: list[_NestInfo],
    cands: _PadCandidates,
    subset: set[str],
    cache_size: int,
    line_size: int,
) -> np.ndarray:
    """Exploited group-*temporal* arcs over all nests, per candidate pad.

    Only ``subset`` arrays take part.  Mirrors
    :func:`repro.layout.diagram.arcs_exploited` for a foreign
    dot under the arc or within one line of its endpoints.  Arcs shorter
    than a cache line are group-*spatial* reuse -- exploited under any
    layout -- so they are excluded from the objective; counting them would
    let cheap same-line arcs outvote the column arcs GROUPPAD exists to
    preserve.
    """
    counts = np.zeros(len(cands.shifts), dtype=np.int64)
    for info in infos:
        arcs = [
            (arr, trail, span)
            for arr, trail, span in info.arcs
            if arr in subset
            and line_size <= span
            and span + line_size <= cache_size
        ]
        if not arcs:
            continue
        dots = [(arr, rel) for arr, rel in info.dots if arr in subset]
        # (A, D): each dot's distance from each arc's trailing end, and how
        # that distance moves with the shift.
        gap = np.array([
            [cands.bases[parr] + prel - cands.bases[arr] - trail
             for parr, prel in dots]
            for arr, trail, _ in arcs
        ])
        drift = np.array([
            [cands.drift(parr, arr) for parr, _ in dots] for arr, _, _ in arcs
        ])
        own = np.array([  # the arc's own endpoints never block it
            [parr == arr and prel in (trail, trail + span) for parr, prel in dots]
            for arr, trail, span in arcs
        ])
        span = np.array([s for _, _, s in arcs])[:, None, None]
        rel = cands.ring_offsets(gap, drift, cache_size)  # (A, D, K)
        blocked = (rel < span + line_size) | (rel > cache_size - line_size)
        blocked &= ~own[..., None]
        counts += (~blocked.any(axis=1)).sum(axis=0)
    return counts


def grouppad(
    program: Program,
    layout: DataLayout,
    cache_size: int,
    line_size: int,
    granularity: int | None = None,
    avoid_conflicts: bool = True,
    refine_passes: int = 1,
) -> DataLayout:
    """Apply GROUPPAD for one cache level.

    Each variable tries pads of ``0, g, 2g, ...`` up to one full cache
    (``g`` defaults to the line size); the pad maximizing the exploited
    group-reuse count among already-placed variables wins, with severe
    conflicts disqualifying a position (unless no conflict-free position
    exists) and smaller pads breaking ties.

    After the greedy placement, ``refine_passes`` rounds of coordinate
    descent re-choose each variable's pad with *all* other variables
    placed -- the greedy order can trap early variables in positions that
    block later arcs, and one refinement pass recovers most of that.
    """
    if granularity is None:
        granularity = line_size
    if granularity <= 0 or cache_size % granularity != 0:
        raise TransformError(
            f"granularity {granularity} must divide cache size {cache_size}"
        )
    infos = _nest_infos(program)
    deltas = _pair_deltas(program)
    all_names = set(layout.order)

    ring = granularity * np.arange(cache_size // granularity, dtype=np.int64)

    def best_pad_for(
        current: DataLayout, name: str, others: set[str], base_pad: int
    ) -> int:
        shifts = base_pad - current.pads[current.index_of(name)] + ring
        cands = _PadCandidates.of(current, name, shifts)
        score = _exploited_counts(
            infos, cands, others | {name}, cache_size, line_size
        )
        if avoid_conflicts:
            free = ~_severe_conflicts(
                cands, name, others, deltas, [cache_size], line_size
            )
            if free.any():  # a conflict-free position beats any other
                score = np.where(free, score, -1)
        return base_pad + int(ring[np.argmax(score)])

    out = layout
    placed: list[str] = []
    for name in layout.order:
        if placed:
            base_pad = out.pads[out.index_of(name)]
            out = out.with_pad(
                name, best_pad_for(out, name, set(placed), base_pad)
            )
        placed.append(name)

    for _ in range(max(0, refine_passes)):
        changed = False
        for name in layout.order[1:]:
            idx = out.index_of(name)
            current_pad = out.pads[idx]
            base_pad = current_pad % granularity  # keep residue, search ring
            new_pad = best_pad_for(out, name, all_names - {name}, base_pad)
            if new_pad != current_pad:
                out = out.with_pad(name, new_pad)
                changed = True
        if not changed:
            break
    return out


def grouppad_recursive(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
) -> DataLayout:
    """Multi-level GROUPPAD (Section 3.2.2).

    Phase 1 runs :func:`grouppad` for the L1 cache; each later phase
    re-optimizes group reuse for the next cache level using pads that are
    multiples of the previous level's size, preserving all earlier layouts.
    """
    levels = hierarchy.levels
    out = grouppad(program, layout, levels[0].size, levels[0].line_size)
    infos = _nest_infos(program)
    for prev, cfg in zip(levels, levels[1:]):
        ring = prev.size * np.arange(cfg.size // prev.size, dtype=np.int64)
        placed: set[str] = set()
        for name in out.order:
            if placed:
                score = _exploited_counts(
                    infos, _PadCandidates.of(out, name, ring), placed | {name},
                    cfg.size, cfg.line_size,
                )
                out = out.add_pad(name, int(ring[np.argmax(score)]))
            placed.add(name)
    return out
