"""Objectives: what the autotuner minimizes.

The contract is deliberately small: an :class:`Objective` maps one
simulated :class:`~repro.cache.stats.SimulationResult` (plus the hierarchy
it ran on) to a single float, and **lower is better**.  Everything the
strategies and the tuner do -- comparisons, trajectories, gaps -- relies
only on that ordering, so any pure function of the miss statistics plugs
in.

Built-ins:

* :func:`miss_cost_objective` -- miss counts weighted by the hierarchy's
  per-level penalties (:class:`~repro.analysis.costmodel.MissCostModel`),
  the same scaling the paper uses for fusion profitability (Section 4);
* :func:`miss_rate_objective` -- one level's raw miss rate (paper
  normalization: misses over *total* references);
* :func:`cycles_objective` -- the full cycle model including hit costs
  (what the figures' "execution time improvement" axes derive from).

:func:`model_objective` is the *analytic* counterpart: it scores a
:class:`~repro.exec.jobs.SimJob` directly -- no trace, no simulation --
by running the closed-form predictor (:mod:`repro.model`) and applying a
base objective to the :class:`~repro.model.PredictedStats` mirror result.
It deliberately has a different call signature (job in, float out): a
predicted score is a *ranking* device, never a measurement, and the type
difference keeps the two from being mixed up in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.costmodel import MissCostModel
from repro.cache.config import HierarchyConfig
from repro.cache.stats import SimulationResult
from repro.obs.metrics import get_metrics

__all__ = [
    "Objective",
    "ModelObjective",
    "miss_cost_objective",
    "miss_rate_objective",
    "cycles_objective",
    "model_objective",
]


@dataclass(frozen=True)
class Objective:
    """A named, minimized figure of merit over simulation results."""

    name: str
    fn: Callable[[SimulationResult, HierarchyConfig], float] = field(
        compare=False, repr=False
    )

    def __call__(self, result: SimulationResult, hierarchy: HierarchyConfig) -> float:
        return float(self.fn(result, hierarchy))


def miss_cost_objective() -> Objective:
    """Penalty cycles of all misses, weighted per level (Section 4 scaling).

    L1 misses pay the next level's hit cost; references that miss every
    level pay the memory cost.  Hit costs are excluded -- every config of
    a pad/tile space issues the same references, so the hit term is a
    constant offset that only compresses relative gaps.
    """

    def fn(result: SimulationResult, hierarchy: HierarchyConfig) -> float:
        model = MissCostModel.from_hierarchy(hierarchy)
        l1_misses = result.levels[0].misses
        to_memory = result.memory_refs
        # Intermediate-level misses (3+ level hierarchies) pay their own
        # next-level costs on top of the L1/memory endpoints.
        extra = sum(
            lv.misses * hierarchy.miss_cycles(i)
            for i, lv in enumerate(result.levels[1:-1], start=1)
        )
        return model.weighted(l1_misses, to_memory) + extra

    return Objective(name="miss-cost", fn=fn)


@dataclass(frozen=True)
class ModelObjective:
    """An analytic (simulation-free) score over :class:`SimJob`\\ s.

    Wraps a base :class:`Objective` and feeds it the closed-form
    predictor's :class:`~repro.model.PredictedStats` mirror result
    instead of a simulation.  Used by
    :class:`~repro.search.strategies.PredictThenVerifyStrategy` to rank
    whole spaces and by :meth:`SweepExecutor.predict
    <repro.exec.executor.SweepExecutor.predict>` batch scoring.

    With ``prefer_exact`` each job is first classified by the symbolic
    tier (:mod:`repro.symbolic`); jobs provably in the no-eviction
    regime are scored from their *exact* miss counts rather than the
    predictor's estimate -- still trace-free, strictly more faithful on
    the jobs where it applies.
    """

    name: str
    base: Objective
    prefer_exact: bool = False

    def __call__(self, job) -> float:
        from repro.model import predict_job  # lazy: keeps import DAG acyclic

        if self.prefer_exact:
            from repro.symbolic import analyze_job, classify_job

            classification = classify_job(job)
            if all(c.exact for c in classification):
                result = analyze_job(job, classification=classification).result
                return self.base(result, job.hierarchy)
        get_metrics().counter("model.predictions").inc()
        return self.base(predict_job(job).result, job.hierarchy)


def model_objective(
    base: Objective | None = None, prefer_exact: bool = False
) -> ModelObjective:
    """The closed-form predictor scoring jobs under ``base`` (default:
    the weighted miss cost, so predicted and simulated scores are in the
    same units and directly comparable).  ``prefer_exact`` upgrades the
    score to the symbolic tier's exact counts on jobs it can prove."""
    base = base if base is not None else miss_cost_objective()
    name = f"model[{base.name}]" if not prefer_exact else f"symbolic[{base.name}]"
    return ModelObjective(name=name, base=base, prefer_exact=prefer_exact)


def miss_rate_objective(level: str = "L1") -> Objective:
    """One level's miss rate, normalized to total references (paper norm)."""

    def fn(result: SimulationResult, hierarchy: HierarchyConfig) -> float:
        return result.miss_rate(level)

    return Objective(name=f"{level}-miss-rate", fn=fn)


def cycles_objective() -> Objective:
    """The full additive cycle model (hits + misses at every level)."""

    def fn(result: SimulationResult, hierarchy: HierarchyConfig) -> float:
        return result.cycles(hierarchy)

    return Objective(name="cycles", fn=fn)
