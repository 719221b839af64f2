"""Cheap per-job cost estimates for the sweep scheduler.

The scheduler (:mod:`repro.exec.scheduler`) dispatches pending jobs
longest-first, so a full-size ERLE straggler starts immediately instead
of serializing the tail of a sweep while short jobs idle the pool.  For
that ordering to be free it must come from the IR alone -- no traces,
no simulation:

* the **primary** cost is the dynamic reference count, computed exactly
  from loop trip counts (:meth:`repro.ir.loops.LoopNest.iterations`
  walks triangular bounds with the same
  :meth:`~repro.ir.loops.Loop.concrete_trip` arithmetic the trace
  generator uses, so the estimate counts precisely the references the
  simulator will stream);
* the **refinement** sums the symbolic tier's per-reference line lower
  bounds (:func:`repro.analysis.footprint.ref_lines_lower_bound`, cached
  per nest and line size) over every textual reference: of two jobs with
  equal reference counts, the one touching more lines compresses worse
  in the vectorized simulator and runs longer.

The same line sum also picks the **trace chunk budget** for the
auto tier's sim fallback (:func:`auto_chunk_refs`): the streaming
simulator guarantees chunking never changes miss counts, so the budget
is a pure locality knob -- a job with a small footprint gets chunks
sized to keep the simulator's per-chunk intermediates cache-resident
instead of paying the default 4M-reference allocations.
"""

from __future__ import annotations

from repro.analysis.nestinfo import nest_analysis
from repro.trace.generator import DEFAULT_CHUNK_REFS

__all__ = [
    "estimate_job_refs",
    "estimate_job_lines",
    "job_cost",
    "auto_chunk_refs",
    "MIN_CHUNK_REFS",
    "REFS_PER_LINE_BUDGET",
]

#: Floor of the adaptive chunk budget: small enough that a tiny job's
#: simulator intermediates stay cache-resident, large enough that the
#: per-chunk fixed costs (LRU state replay, domain compression setup)
#: stay amortized.
MIN_CHUNK_REFS = 65_536

#: Adaptive budget: this many streamed references per distinct line of
#: estimated working set.  A reuse-heavy job (many refs per line) still
#: gets proportionally roomy chunks; a streaming job converges to the
#: default budget.
REFS_PER_LINE_BUDGET = 64


def _job_nests(job):
    """The nests one job actually traces (all, or the selected one)."""
    if job.nest_index is not None:
        return (job.program.nests[job.nest_index],)
    return tuple(job.program.nests)


def estimate_job_refs(job) -> int:
    """Exact dynamic reference count of a job's generic trace.

    Kernels with custom trace hooks (IRR's gathers) may deviate slightly
    from the generic count; for cost *ordering* the generic count is the
    right estimate either way.
    """
    return sum(
        nest_analysis(job.program, nest).iterations * nest.refs_per_iteration
        for nest in _job_nests(job)
    )


def estimate_job_lines(job, line_size: int | None = None) -> int:
    """Sum of per-reference line lower bounds, a working-set size proxy.

    Every textual reference contributes its
    :func:`~repro.analysis.footprint.ref_lines_lower_bound` at the
    hierarchy's smallest line size, duplicates included, so two
    references to the same lines count twice.  The sum is therefore
    *not* a lower bound on the job's distinct lines (it can exceed
    them); it is a deterministic size measure, good enough to order
    equal-ref jobs and to scale chunk budgets.  Layout bases are
    ignored -- they shift offsets, never shrink a reference's own line
    count.
    """
    if line_size is None:
        line_size = min(c.line_size for c in job.hierarchy)
    total = 0
    for nest in _job_nests(job):
        info = nest_analysis(job.program, nest)
        total += sum(
            b * m for b, m in zip(info.lines_bounds(line_size), info.multiplicity)
        )
    return total


def job_cost(job) -> tuple[int, int]:
    """Sortable cost estimate: ``(dynamic refs, working-set lines)``.

    Descending sort on this tuple is the scheduler's longest-first
    dispatch order; the lines refinement breaks ties between jobs whose
    reference counts agree (layout variants of one sweep point usually
    do).  Deterministic by construction -- both components come from the
    IR, never from timing.
    """
    return (estimate_job_refs(job), estimate_job_lines(job))


def auto_chunk_refs(job) -> int:
    """Working-set-bounded trace chunk budget for the sim fallback.

    ``REFS_PER_LINE_BUDGET`` references per estimated working-set line,
    clamped to ``[MIN_CHUNK_REFS, DEFAULT_CHUNK_REFS]`` and never above
    the job's own reference count rounded up to the floor.  Chunking is
    guaranteed not to change miss counts (the streaming simulator's
    contract, pinned by ``tests/cache``), so this is purely a locality /
    peak-memory knob.
    """
    refs = estimate_job_refs(job)
    if refs <= MIN_CHUNK_REFS:
        return MIN_CHUNK_REFS
    lines = estimate_job_lines(job)
    budget = lines * REFS_PER_LINE_BUDGET
    return max(MIN_CHUNK_REFS, min(DEFAULT_CHUNK_REFS, budget, refs))
