"""The closed-form multi-level miss predictor.

Maps ``(program IR, layout, hierarchy)`` to predicted per-level miss
counts without generating a trace, in the spirit of the paper's "simple
cache model" (Section 6.4) but covering every axis the search subsystem
tunes over:

* **spatial misses** from reference strides against each level's line
  size (one miss per line's worth of iterations along the innermost
  address-varying loop, the Wolf & Lam self-reuse estimate);
* **conflict misses** from set-mapping overlap of uniformly related
  reference pairs, direct-mapped *and* k-way via the ``S/k`` mapping
  period (:mod:`repro.model.conflicts`) -- a thrashing reference misses
  on every iteration, which is the paper's severe-conflict closed form;
* **group reuse** through the layout diagram: a trailing reference whose
  arc is exploited at a level is charged nothing there;
* **capacity and cross-nest temporal reuse** from the footprint
  machinery: a reference whose span fits a level pays one sweep of
  misses (and nothing at all when a previous nest left the array
  resident); one that does not fit re-faults on every revisit of its
  varying subspace.

Everything that depends on the nest alone -- deduplicated references,
offsets, strides, spans, reuse arcs, the constant-delta pairs -- comes
from the cached per-nest analysis (:mod:`repro.analysis.nestinfo`), so a
prediction only adds the layout's bases and walks the levels: O(refs^2)
per level at worst (the pairwise conflict graph), against the
simulator's O(trace).  On small fuzzed jobs (one program under three
hierarchies, as the ``tiers`` benchmark runs them) a prediction takes
about 0.14 ms when it also builds the nest analyses and 0.05 ms once
they are cached, measured on a 2-CPU x86_64 VM.  That asymmetry is what
makes the predict-then-verify search strategy pay off: score everything
analytically, simulate only what looks good.

Accuracy contract: the predictor is built to *rank* layouts, not to hit
miss counts exactly.  Resonant layouts (the severe-conflict closed form)
are predicted exactly; smooth layouts carry O(1) per-array error from
boundary effects.  See ``docs/model.md`` for the measured error envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.analysis.nestinfo import NestAnalysis, nest_analysis
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.stats import LevelStats, SimulationResult
from repro.errors import AnalysisError
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import DataLayout
from repro.model.conflicts import thrashing_indices

__all__ = [
    "LevelPrediction",
    "NestPrediction",
    "PredictedStats",
    "predict_nest",
    "predict_program",
    "predict_job",
]


@dataclass(frozen=True)
class LevelPrediction:
    """Predicted miss count at one level, with its conflict component."""

    name: str
    misses: float
    conflict_misses: float = 0.0

    def __post_init__(self) -> None:
        if self.misses < 0 or self.conflict_misses < 0:
            raise AnalysisError("predicted miss counts must be non-negative")


@dataclass(frozen=True)
class NestPrediction:
    """One nest's per-level prediction."""

    label: str | None
    iterations: int
    refs_per_iteration: int
    levels: tuple[LevelPrediction, ...]

    @property
    def total_refs(self) -> int:
        return self.iterations * self.refs_per_iteration


@dataclass(frozen=True)
class PredictedStats:
    """Program-level prediction, mirroring :class:`SimulationResult`.

    ``predictions`` holds the raw (fractional) per-level miss counts;
    :attr:`levels` rounds them into a :class:`LevelStats` chain whose
    accesses follow the miss stream (accesses at level *i+1* equal misses
    at level *i*, clamped), so :attr:`result` is a well-formed
    :class:`SimulationResult` that drops into every existing report,
    objective, and cycle model.
    """

    total_refs: int
    predictions: tuple[LevelPrediction, ...]
    nests: tuple[NestPrediction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictions", tuple(self.predictions))
        object.__setattr__(self, "nests", tuple(self.nests))
        if self.total_refs < 0:
            raise AnalysisError("total_refs must be non-negative")
        if not self.predictions:
            raise AnalysisError("at least one level prediction is required")

    # -- SimulationResult mirror --------------------------------------------
    @cached_property
    def levels(self) -> tuple[LevelStats, ...]:
        out = []
        accesses = self.total_refs
        for p in self.predictions:
            misses = int(min(accesses, max(0, round(p.misses))))
            out.append(LevelStats(name=p.name, accesses=accesses, misses=misses))
            accesses = misses
        return tuple(out)

    @cached_property
    def result(self) -> SimulationResult:
        """The prediction as a drop-in :class:`SimulationResult`."""
        return SimulationResult(total_refs=self.total_refs, levels=self.levels)

    def level(self, name: str) -> LevelStats:
        return self.result.level(name)

    def miss_rate(self, name: str) -> float:
        return self.result.miss_rate(name)

    @property
    def memory_refs(self) -> int:
        return self.result.memory_refs

    def cycles(self, hierarchy) -> float:
        return self.result.cycles(hierarchy)

    def summary(self) -> str:
        return "predicted " + self.result.summary()

    # -- model-specific detail ----------------------------------------------
    def conflict_misses(self, name: str) -> float:
        """The raw conflict component of one level's prediction."""
        for p in self.predictions:
            if p.name == name:
                return p.conflict_misses
        raise KeyError(f"no cache level named {name!r}")

    @property
    def is_conflict_free(self) -> bool:
        """True when no level predicts any steady-state conflict misses."""
        return all(p.conflict_misses == 0.0 for p in self.predictions)


# -- per-reference model -----------------------------------------------------

def _ref_sweep_misses(
    info: NestAnalysis,
    i: int,
    cache: CacheConfig,
    resident: frozenset[str],
) -> float:
    """Self-reuse misses of unique reference ``i`` at one level (no conflicts).

    One *sweep* is a full traversal of the loops the address depends on;
    it costs one miss per new line entered.  Invariant loops wrapped
    around the sweep repeat it; the repeats are free when the reference's
    span fits the cache, and cost full sweeps when it does not.  An array
    left resident by the previous nest makes the first sweep free too.
    Triangular loops count their value-range width (the rectangular hull
    the span estimates also use).
    """
    array = info.refs[i].array
    strides = info.strides[i]
    varying = [k for k, s in enumerate(strides) if s != 0]
    if not varying:
        # Scalar-like address: one cold line, or none if already cached.
        return 0.0 if array in resident else 1.0

    sweep_iters = 1
    for k in varying:
        sweep_iters *= info.trips[k]
    inner_stride = abs(strides[varying[-1]])
    frac = min(1.0, inner_stride / cache.line_size)
    per_sweep = frac * sweep_iters

    if info.ref_spans[i] <= cache.size:
        return 0.0 if array in resident else per_sweep
    # Does not fit: every enclosing invariant loop restarts the sweep
    # against a cold cache.
    revisits = 1
    for k, s in enumerate(strides):
        if s == 0 and k < varying[-1]:
            revisits *= info.trips[k]
    return per_sweep * revisits


# -- nest / program / job entry points ---------------------------------------

def predict_nest(
    program: Program,
    layout: DataLayout,
    nest: LoopNest,
    hierarchy: HierarchyConfig,
    resident: tuple[frozenset[str], ...] | None = None,
) -> NestPrediction:
    """Predict one nest's misses at every level of the hierarchy.

    ``resident`` gives, per level, the arrays assumed cached on entry
    (:func:`predict_program` threads this across nests); by default every
    level starts cold, matching :func:`repro.simulate.simulate_nest`.
    """
    from repro.layout.diagram import arcs_exploited  # lazy: import-cycle guard

    if resident is None:
        resident = tuple(frozenset() for _ in hierarchy.levels)
    info = nest_analysis(program, nest)
    iters = info.iterations
    addrs = info.addresses(layout)
    levels = []
    for cache, cached_arrays in zip(hierarchy.levels, resident):
        thrash = thrashing_indices(info, addrs, cache)
        positions = [a % cache.size for a in addrs]
        flags = arcs_exploited(info, positions, cache.size, cache.line_size)
        exploited = {t for (t, _), ok in zip(info.arc_refs, flags) if ok}
        base = 0.0
        conflict = 0.0
        for i in range(len(info.refs)):
            if i in thrash:
                # Severe conflict: the competing reference evicts the
                # line between consecutive touches, every iteration.
                conflict += float(iters)
            elif i in exploited:
                continue  # served by group reuse at this level
            else:
                base += _ref_sweep_misses(info, i, cache, cached_arrays)
        levels.append(
            LevelPrediction(
                name=cache.name, misses=base + conflict, conflict_misses=conflict
            )
        )
    return NestPrediction(
        label=nest.label,
        iterations=iters,
        refs_per_iteration=nest.refs_per_iteration,
        levels=tuple(levels),
    )


def _update_residency(
    program: Program,
    nest: LoopNest,
    hierarchy: HierarchyConfig,
    resident: list[frozenset[str]],
) -> None:
    """What the next nest may assume cached after this one ran.

    A level retains the nest's arrays when the nest's whole footprint fit;
    a nest that streamed more data than the level holds flushes it (the
    fusion machinery's "no reuse between nests due to capacity
    constraints" assumption, applied per level).
    """
    info = nest_analysis(program, nest)
    for i, cache in enumerate(hierarchy.levels):
        resident[i] = info.arrays_used if info.footprint <= cache.size else frozenset()


def predict_program(
    program: Program,
    layout: DataLayout,
    hierarchy: HierarchyConfig,
    nests: tuple[LoopNest, ...] | None = None,
) -> PredictedStats:
    """Predict per-level misses for a whole program (or a nest subset).

    Nests are processed in program order; arrays a nest leaves resident
    at a level (its footprint fit) satisfy the next nest's cold misses
    there -- the cross-nest temporal reuse that fusion profitability and
    the three-level experiments depend on.
    """
    selected = tuple(nests) if nests is not None else tuple(program.nests)
    if not selected:
        raise AnalysisError(f"program {program.name!r} has no nests to predict")
    resident: list[frozenset[str]] = [frozenset() for _ in hierarchy.levels]
    totals = [0.0] * len(hierarchy.levels)
    conflicts = [0.0] * len(hierarchy.levels)
    nest_preds = []
    total_refs = 0
    for nest in selected:
        pred = predict_nest(
            program, layout, nest, hierarchy, resident=tuple(resident)
        )
        nest_preds.append(pred)
        total_refs += pred.total_refs
        for i, lv in enumerate(pred.levels):
            totals[i] += lv.misses
            conflicts[i] += lv.conflict_misses
        _update_residency(program, nest, hierarchy, resident)
    return PredictedStats(
        total_refs=total_refs,
        predictions=tuple(
            LevelPrediction(name=c.name, misses=m, conflict_misses=k)
            for c, m, k in zip(hierarchy.levels, totals, conflicts)
        ),
        nests=tuple(nest_preds),
    )


def predict_job(job) -> PredictedStats:
    """Score one :class:`~repro.exec.jobs.SimJob` analytically.

    The exact analytic counterpart of ``job.run()``: same program,
    layout, and hierarchy, with ``nest_index`` jobs predicted on that
    nest alone (cold caches, as :func:`simulate_nest` measures).  Kernels
    with custom trace hooks (IRR's runtime gathers) are predicted from
    their affine IR, which ignores the data-dependent indirection -- rank
    them with care, or not at all.
    """
    nests = None
    if job.nest_index is not None:
        nests = (job.program.nests[job.nest_index],)
    return predict_program(job.program, job.layout, job.hierarchy, nests=nests)
