"""Per-nest analysis: the facts about one loop nest that depend on
neither the data layout nor the cache.

Section 6.4's claim is that the compiler predicts miss rates by analyzing
group reuse.  That analysis -- which references a nest makes, their byte
offset expressions, strides, spans, uniformly generated classes, reuse
arcs, footprint -- is a function of the nest and the array declarations
alone.  Every model in the package reads it: the predictor, the cache
diagram, the thrash clusters, the padding transforms, the symbolic
classifier and the scheduler's cost model.  Each of them applies its
layout or cache as a cheap step on top: add the array bases, take
positions modulo a cache size, divide by a line size.

:func:`nest_analysis` builds a :class:`NestAnalysis` on first use and
caches it on the :class:`~repro.ir.loops.LoopNest` instance
(``LoopNest._analysis``), so it lives exactly as long as the nest.  The
cache is keyed by the identity of the program's ``arrays`` tuple (the
declarations the offsets were lowered against); programs derived with
``with_nests`` or ``renamed`` share that tuple and therefore share the
analyses of their common nests.  The cached object is derived data: it
is left out of pickling (:meth:`LoopNest.__getstate__`), never takes
part in equality or hashing (dataclass fields only), and never reaches
:func:`repro.exec.hashing.canonical`, so job keys, program fingerprints
and the pool's shared pickled payloads are unchanged by it.

Thread safety: an analysis is built completely and then published with a
single attribute store, so a concurrent reader sees either nothing or a
finished object.  Two threads racing on the same nest may both build one;
the results are equal and the last store wins.  The two memo tables
filled after publication (line bounds per line size, relative offset
enumerations per budget) are plain dicts whose entries are deterministic,
so a duplicate computation is harmless.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.analysis.footprint import ref_lines_lower_bound
from repro.analysis.groups import build_classes
from repro.errors import IRError
from repro.ir.affine import AffineExpr
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.ir.ranges import affine_interval, canonical_env, loop_var_ranges
from repro.ir.refs import ArrayRef

__all__ = ["NestAnalysis", "nest_analysis", "unique_refs"]

def unique_refs(refs) -> tuple[list[ArrayRef], list[int]]:
    """Deduplicate references by (array, subscripts), folding read/write.

    Returns the unique references (as reads) in first-occurrence order and
    how many times each appears.  After fusion a nest can contain the same
    reference twice ("dots may represent two identical references"); only
    the first occurrence can fault, so every model treats them as one dot
    with a multiplicity.
    """
    index: dict[tuple, int] = {}
    uniq: list[ArrayRef] = []
    counts: list[int] = []
    for r in refs:
        key = (r.array, r.subscripts)
        i = index.get(key)
        if i is None:
            index[key] = len(uniq)
            uniq.append(r if not r.is_write else ArrayRef(r.array, r.subscripts))
            counts.append(1)
        else:
            counts[i] += 1
    return uniq, counts


def _trip(lp, ranges: dict[str, tuple[int, int]]) -> int:
    try:
        return max(1, lp.trip_count())
    except IRError:
        vmin, vmax = ranges[lp.var]
        return max(1, (vmax - vmin) // abs(lp.step) + 1)


class NestAnalysis:
    """Layout- and hierarchy-independent facts about one nest.

    Per unique reference ``i`` (see :func:`unique_refs`): ``refs[i]``,
    ``multiplicity[i]``, its byte-offset expression from the array base
    ``offsets[i]``, that offset at the canonical iteration
    ``canonical[i]``, its per-loop byte ``strides[i]`` (coefficient times
    step, outermost first) and the bytes it spans ``ref_spans[i]``.

    Per nest: ``env`` (:func:`~repro.ir.ranges.canonical_env`), ``ranges``
    (:func:`~repro.ir.ranges.loop_var_ranges`), ``iterations``, ``trips``
    (each loop's trip count, at least 1; loops with symbolic bounds use
    the width of their value range, the rectangular hull),
    ``array_spans`` and their sum ``footprint``, ``arrays_used``, the
    uniformly generated ``classes``, the reuse ``arcs`` with the indices
    of their trailing and leading references ``arc_refs``, and
    ``const_pairs``: index pairs ``i < j`` of references to different
    arrays whose address delta is the same at every iteration.

    Treat every field as read-only; consumers share one instance.
    """

    def __init__(self, program: Program, nest: LoopNest):
        self.arrays = program.arrays
        self._nest = weakref.ref(nest)  # the nest owns this; no cycle
        refs, counts = unique_refs(nest.refs)
        decls = {name: program.decl(name) for name in {r.array for r in refs}}
        self.refs: tuple[ArrayRef, ...] = tuple(refs)
        self.multiplicity: tuple[int, ...] = tuple(counts)
        self.offsets: tuple[AffineExpr, ...] = tuple(
            r.offset_expr(decls[r.array]) for r in refs
        )
        self.env: dict[str, int] = canonical_env(nest)
        self.ranges: dict[str, tuple[int, int]] = loop_var_ranges(nest)
        self.canonical: tuple[int, ...] = tuple(
            int(off.evaluate(self.env)) for off in self.offsets
        )
        self.strides: tuple[tuple[int, ...], ...] = tuple(
            tuple(off.coeff(lp.var) * lp.step for lp in nest.loops)
            for off in self.offsets
        )
        self.iterations: int = nest.iterations()
        self.trips: tuple[int, ...] = tuple(
            _trip(lp, self.ranges) for lp in nest.loops
        )

        intervals = [affine_interval(off, self.ranges) for off in self.offsets]
        self.ref_spans: tuple[int, ...] = tuple(
            (hi - lo) + decls[r.array].element_size
            for r, (lo, hi) in zip(refs, intervals)
        )
        self.arrays_used: frozenset[str] = frozenset(decls)
        array_spans: dict[str, int] = {}
        for name in sorted(decls):
            lo = min(iv[0] for r, iv in zip(refs, intervals) if r.array == name)
            hi = max(iv[1] for r, iv in zip(refs, intervals) if r.array == name)
            array_spans[name] = (hi - lo) + decls[name].element_size
        self.array_spans: dict[str, int] = array_spans
        self.footprint: int = sum(array_spans.values())

        self.classes, self.arcs, self.arc_refs = build_classes(
            self.refs, self.multiplicity, self.offsets
        )
        # Equal variable terms <=> the difference is a constant expression.
        terms = [off.terms for off in self.offsets]
        self.const_pairs: tuple[tuple[int, int], ...] = tuple(
            (i, j)
            for i in range(len(refs))
            for j in range(i + 1, len(refs))
            if refs[i].array != refs[j].array and terms[i] == terms[j]
        )
        self._lines: dict[int, tuple[int, ...]] = {}
        self._enumerations: dict[tuple, np.ndarray | None] = {}

    # -- layout-dependent steps --------------------------------------------
    def addresses(self, layout) -> list[int]:
        """Each unique reference's absolute address at the canonical
        iteration under ``layout`` (its base plus ``canonical[i]``)."""
        bases = layout.bases()
        missing = self.arrays_used - bases.keys()
        if missing:
            layout.base(min(missing))  # raises the layout's own error
        return [bases[r.array] + c for r, c in zip(self.refs, self.canonical)]

    # -- memoized per-parameter facts ----------------------------------------
    def lines_bounds(self, line_size: int) -> tuple[int, ...]:
        """:func:`~repro.analysis.footprint.ref_lines_lower_bound` of each
        unique reference at ``line_size``."""
        bounds = self._lines.get(line_size)
        if bounds is None:
            nest = self._nest()
            bounds = tuple(
                ref_lines_lower_bound(nest, off, line_size) for off in self.offsets
            )
            self._lines[line_size] = bounds
        return bounds

    def relative_offsets(
        self, i: int, max_offsets: int, max_steps: int
    ) -> np.ndarray | None:
        """Distinct byte offsets of reference ``i`` from its array base.

        The memoized layout-free form of
        :func:`repro.symbolic.lines.ref_distinct_offsets`: the absolute
        enumeration under a layout is this array plus the array's base,
        and ``None`` (over budget) means the same for both, because a
        constant shift changes neither the number of distinct offsets nor
        the walk.  The returned array is read-only.
        """
        from repro.symbolic.lines import ref_distinct_offsets  # lazy: import cycle

        key = (self.offsets[i], max_offsets, max_steps)
        if key in self._enumerations:
            return self._enumerations[key]
        offs = ref_distinct_offsets(
            self._nest(), self.offsets[i], max_offsets, max_steps
        )
        if offs is not None:
            offs.flags.writeable = False
        self._enumerations[key] = offs
        return offs


def nest_analysis(program: Program, nest: LoopNest) -> NestAnalysis:
    """The (cached) :class:`NestAnalysis` of ``nest`` under ``program``'s
    array declarations.  See the module docstring for its lifetime."""
    info = nest._analysis
    if info is None or info.arrays is not program.arrays:
        info = NestAnalysis(program, nest)
        object.__setattr__(nest, "_analysis", info)  # one store publishes it
    return info
