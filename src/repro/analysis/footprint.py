"""Working-set (footprint) estimates.

Used by fusion (capacity check: "we assume no reuse between nests due to
capacity constraints"), by GROUPPAD (how many columns fit in the cache),
and by tiling profitability.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.affine import AffineExpr
from repro.ir.loops import LoopNest
from repro.ir.program import Program

__all__ = [
    "nest_footprint_bytes",
    "columns_in_cache",
    "ref_span_bytes",
    "ref_lines_lower_bound",
]


def ref_span_bytes(program: Program, nest: LoopNest, array: str) -> int:
    """Bytes of ``array`` spanned by the nest's references to it.

    Interval width of the reference offsets over the iteration space plus
    one element -- an upper bound on the data touched in that array.
    """
    from repro.analysis.nestinfo import nest_analysis  # lazy: import cycle

    span = nest_analysis(program, nest).array_spans.get(array)
    if span is None:
        program.decl(array)  # an undeclared name raises, a declared one spans 0
        return 0
    return span


def nest_footprint_bytes(program: Program, nest: LoopNest) -> int:
    """Total bytes touched by a nest (sum of per-array spans)."""
    from repro.analysis.nestinfo import nest_analysis  # lazy: import cycle

    return nest_analysis(program, nest).footprint


def ref_lines_lower_bound(
    nest: LoopNest, offset_expr: AffineExpr, line_size: int
) -> int:
    """A provable lower bound on the distinct cache lines one reference
    touches over its iteration space.

    Used by :mod:`repro.symbolic` as a capacity pre-filter: when the bound
    already exceeds a level's ``num_lines``, some set must receive more
    lines than it has ways (pigeonhole), so the no-eviction exactness
    condition cannot hold and the full footprint enumeration is skipped.

    The bound composes per-loop arithmetic progressions smallest stride
    first, tracking two invariants of the accumulated offset set: its
    byte ``span`` and an upper bound ``gap`` on the largest distance
    between consecutive offsets.  A stride larger than the current span
    shifts the set into byte-disjoint copies (each holding the current
    line count, adjacent copies sharing at most one boundary line); and
    whenever ``gap <= line_size`` no aligned line inside the window can
    be skipped, so ``span // line_size - 1`` lines are certainly touched.
    Loops with symbolic (triangular) bounds contribute nothing -- they
    can only grow the footprint, so dropping them keeps the bound a true
    lower bound.
    """
    pairs = []  # (trip, |stride|) of rectangular loops the address varies in
    for lp in nest.loops:
        coeff = offset_expr.coeff(lp.var)
        if coeff == 0 or not lp.is_rectangular:
            continue
        try:
            trip = lp.trip_count()
        except IRError:  # pragma: no cover - is_rectangular guards this
            continue
        if trip > 1:
            pairs.append((trip, abs(coeff * lp.step)))
    pairs.sort(key=lambda p: p[1])
    lines = 1
    span = 0
    gap = 0
    for trip, stride in pairs:
        if stride > span:
            # Disjoint copies of the inner set: each holds >= `lines`
            # lines, adjacent copies can share at most one line.
            lines = trip * lines - (trip - 1)
            gap = max(gap, stride - span)
        else:
            # Interleaved copies: consecutive-offset gaps stay within
            # max(previous gap, stride).
            gap = max(gap, stride)
        span += stride * (trip - 1)
        if gap <= line_size:
            lines = max(lines, span // line_size - 1)
    return max(1, lines)


def columns_in_cache(program: Program, array: str, cache_size: int) -> float:
    """How many columns of ``array`` a cache of ``cache_size`` bytes holds.

    The quantity the paper uses to explain Figure 11: the 16K L1 "can hold
    only 3 to 8 columns, depending on problem size".
    """
    col = program.decl(array).column_size_bytes
    return cache_size / col
