"""PAD and MULTILVLPAD: inter-variable padding against severe conflicts.

PAD (Rivera & Tseng, PLDI '98; paper Section 3.1.1) walks the variables in
layout order and, for each one, increments its base address one cache line
at a time until no reference to it maps within one line of a reference to
any already-placed variable, in any loop nest.  "In practice, PAD requires
only a few cache lines of padding per variable."

MULTILVLPAD (Section 3.1.2) is PAD run against a single *virtual* cache:
size S1 (the smallest cache) with line size Lmax (the largest line at any
level).  Because each cache size divides the next, two references kept at
least Lmax apart modulo S1 stay at least that far apart modulo every k*S1
-- severe conflicts are avoided at all levels with one pass.

Only reference pairs whose address difference is iteration-invariant
(uniformly generated pairs, which is all the paper's programs contain) can
conflict on *every* iteration; pairs with varying deltas cannot be fixed
by padding and are ignored, as in PAD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import HierarchyConfig
from repro.errors import TransformError
from repro.ir.program import Program
from repro.layout.layout import DataLayout

__all__ = ["pad", "multilvl_pad", "pad_explicit_levels"]


def _pair_deltas(program: Program) -> dict[tuple[str, str], np.ndarray]:
    """Constant parts of inter-variable reference deltas, per array pair.

    For every nest and every pair of references to different arrays whose
    offset difference is iteration-invariant, record that constant.  The
    cache distance of such a pair under any layout is
    ``(base_a - base_b + delta) mod C`` -- only the bases change while PAD
    searches, so this table is computed once (sorted, without repeats).
    """
    deltas: dict[tuple[str, str], set[int]] = {}
    for nest in program.nests:
        uniq: dict[tuple, object] = {}
        for ref in nest.refs:
            key = (ref.array, ref.subscripts)
            if key not in uniq:
                uniq[key] = ref.offset_expr(program.decl(ref.array))
        items = list(uniq.items())
        for i, ((arr_a, _), off_a) in enumerate(items):
            for (arr_b, _), off_b in items[i + 1 :]:
                if arr_a == arr_b:
                    continue
                diff = off_a - off_b
                if diff.is_constant:
                    pair = (arr_a, arr_b) if arr_a < arr_b else (arr_b, arr_a)
                    d = diff.constant if arr_a < arr_b else -diff.constant
                    deltas.setdefault(pair, set()).add(d)
    return {
        pair: np.array(sorted(ds), dtype=np.int64) for pair, ds in deltas.items()
    }


@dataclass(frozen=True)
class _PadCandidates:
    """K candidate pads before one array, scored without building layouts.

    Setting the pad before array *i* to ``pad_i + shifts[k]`` moves *i* and
    every later array by ``shifts[k]`` and leaves earlier arrays in place:
    under candidate *k* the base of array *a* is ``bases[a] + shifts[k]``
    when *a* is in ``moved``, else ``bases[a]``.
    """

    bases: dict[str, int]
    moved: frozenset[str]
    shifts: np.ndarray

    @classmethod
    def of(cls, layout: DataLayout, name: str, shifts) -> "_PadCandidates":
        idx = layout.index_of(name)
        return cls(
            bases=layout.bases(),
            moved=frozenset(layout.order[idx:]),
            shifts=np.asarray(shifts, dtype=np.int64),
        )

    def drift(self, a: str, b: str) -> int:
        """How ``base(a) - base(b)`` moves per unit of shift: -1, 0 or 1."""
        return (a in self.moved) - (b in self.moved)

    def ring_offsets(self, gap, drift, size: int) -> np.ndarray:
        """``(gap + drift * shift) mod size`` for every candidate shift, on
        a new trailing axis.  Each term is reduced mod ``size`` first, so
        32-bit arithmetic suffices (integer division dominates the cost)."""
        dtype = np.int32 if size <= 2**30 else np.int64
        gap = (np.asarray(gap) % size).astype(dtype)[..., None]
        drift = np.asarray(drift, dtype=dtype)[..., None]
        return (gap + drift * (self.shifts % size).astype(dtype)) % size


def _severe_conflicts(
    cands: _PadCandidates,
    name: str,
    others,
    deltas: dict[tuple[str, str], np.ndarray],
    cache_sizes: list[int],
    line_size: int,
) -> np.ndarray:
    """Per candidate: does a reference to ``name`` map within one line of a
    reference to one of ``others`` on some cache?

    A pair's distance ``t = (base_a - base_b + d) mod C`` is severe when
    ``min(t, C - t) < line``; the test is symmetric in the sign of the
    difference, so every pair is taken as ``base(name) - base(other)``.
    """
    gaps, drifts = [], []
    for other in others:
        pair = (name, other) if name < other else (other, name)
        ds = deltas.get(pair)
        if ds is None:
            continue
        gap = cands.bases[name] - cands.bases[other]
        gaps.append(gap + (ds if name < other else -ds))
        drifts.append(np.full(len(ds), cands.drift(name, other)))
    conflict = np.zeros(len(cands.shifts), dtype=bool)
    if not gaps:
        return conflict
    gap, drift = np.concatenate(gaps), np.concatenate(drifts)
    for size in cache_sizes:
        t = cands.ring_offsets(gap, drift, size)  # (pairs, K)
        conflict |= (np.minimum(t, size - t) < line_size).any(axis=0)
    return conflict


def _pad_against(
    program: Program,
    layout: DataLayout,
    cache_sizes: list[int],
    line_size: int,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    if line_size <= 0:
        raise TransformError(f"line size must be positive, got {line_size}")
    for size in cache_sizes:
        if size <= 0 or size % line_size != 0:
            raise TransformError(
                f"cache size {size} must be a positive multiple of line {line_size}"
            )
    # Beyond a full cache of lines no new relative positions exist.
    lines = max(cache_sizes) // line_size
    limit = lines if max_lines_per_var is None else max_lines_per_var
    shifts = line_size * np.arange(max(min(limit, lines), 0) + 1, dtype=np.int64)

    deltas = _pair_deltas(program)
    out = layout
    placed: list[str] = []
    for name in layout.order:
        if placed:
            conflict = _severe_conflicts(
                _PadCandidates.of(out, name, shifts), name, placed, deltas,
                cache_sizes, line_size,
            )
            if conflict.all():
                raise TransformError(
                    f"PAD could not free {name!r} of severe conflicts within "
                    f"{limit} lines of padding"
                )
            out = out.add_pad(name, int(shifts[np.argmin(conflict)]))
        placed.append(name)
    return out


def pad(
    program: Program,
    layout: DataLayout,
    cache_size: int,
    line_size: int,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    """Apply PAD for a single cache level; returns the padded layout."""
    return _pad_against(program, layout, [cache_size], line_size, max_lines_per_var)


def multilvl_pad(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    """MULTILVLPAD: one PAD pass against the (S1, Lmax) virtual cache."""
    cfg = hierarchy.multilevel_pad_config()
    return pad(program, layout, cfg.size, cfg.line_size, max_lines_per_var)


def pad_explicit_levels(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    max_lines_per_var: int | None = None,
) -> DataLayout:
    """The direct generalization: test conflicts at *every* level.

    Section 3.1.2's first variant ("base addresses are tested for conflicts
    with respect to all cache levels instead of just one cache").  Uses the
    largest line size as the separation unit so one increment step is valid
    for every level.
    """
    sizes = [cfg.size for cfg in hierarchy]
    return _pad_against(
        program, layout, sizes, hierarchy.max_line_size, max_lines_per_var
    )
