"""Unit tests for the closed-form miss predictor (repro.model)."""

import pytest

from repro import DataLayout, ProgramBuilder, simulate_program
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.errors import AnalysisError
from repro.exec.jobs import SimJob
from repro.kernels.registry import get_kernel
from repro.model import (
    PredictedStats,
    LevelPrediction,
    mean_abs_rel_error,
    predict_job,
    predict_program,
    rankdata,
    spearman,
    thrash_clusters,
    thrashing_refs,
)

from tests.search.conftest import build_pingpong, build_tiny_hier


@pytest.fixture
def hier():
    return build_tiny_hier()


@pytest.fixture
def pingpong():
    return build_pingpong()


class TestResonantExactness:
    """The severe-conflict closed form must match the simulator exactly."""

    def test_pingpong_matches_simulator(self, pingpong, hier):
        layout = DataLayout.sequential(pingpong)
        pred = predict_program(pingpong, layout, hier)
        sim = simulate_program(pingpong, layout, hier)
        assert pred.total_refs == sim.total_refs
        for p, s in zip(pred.levels, sim.levels):
            assert (p.name, p.accesses, p.misses) == (s.name, s.accesses, s.misses)
        assert not pred.is_conflict_free

    def test_padding_away_the_conflict(self, pingpong, hier):
        layout = DataLayout.sequential(pingpong).add_pad(
            "B", hier.l1.line_size
        )
        pred = predict_program(pingpong, layout, hier)
        sim = simulate_program(pingpong, layout, hier)
        assert pred.is_conflict_free
        assert pred.level("L1").misses == sim.level("L1").misses
        # ranking holds: the padded layout is predicted (and simulated)
        # strictly better than the resonant one
        resonant = predict_program(pingpong, DataLayout.sequential(pingpong), hier)
        assert pred.level("L1").misses < resonant.level("L1").misses


class TestConflictClusters:
    def test_pingpong_is_one_two_array_cluster(self, pingpong, hier):
        layout = DataLayout.sequential(pingpong)
        clusters = thrash_clusters(pingpong, layout, pingpong.nests[0], hier.l1)
        assert len(clusters) == 1
        (cluster,) = clusters
        assert sorted(cluster.arrays) == ["A", "B"]
        assert cluster.thrashes(associativity=1)
        assert not cluster.thrashes(associativity=2)
        assert len(thrashing_refs(pingpong, layout, pingpong.nests[0], hier.l1)) == 2

    def test_kway_mapping_period(self, pingpong):
        """Arrays half a cache apart conflict on 2-way (period S/2), not
        on direct-mapped (period S)."""
        direct = CacheConfig(size=1024, line_size=32, name="L1")
        twoway = CacheConfig(size=1024, line_size=32, name="L1", associativity=2)
        base = DataLayout.sequential(pingpong)
        delta = base.base("B") - base.base("A")
        # shift B so A and B sit exactly 512 bytes apart
        layout = base.add_pad("B", 512 - delta % 1024)
        nest = pingpong.nests[0]
        assert thrash_clusters(pingpong, layout, nest, direct) == []
        clusters = thrash_clusters(pingpong, layout, nest, twoway)
        assert len(clusters) == 1
        # ...and a 2-way cache has the ways to absorb two competitors
        assert not clusters[0].thrashes(associativity=2)


class TestSweepAndResidency:
    def test_strided_spatial_misses(self, hier):
        b = ProgramBuilder("stream")
        n = 4096  # 32 KB: larger than both levels
        A = b.array("A", (n,))
        Bm = b.array("B", (n,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, n)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
        p = b.build()
        # pad by the largest line so the arrays separate at every level
        layout = DataLayout.sequential(p).add_pad("B", hier.l2.line_size)
        pred = predict_program(p, layout, hier)
        # unit-stride doubles on 32 B lines: one miss per 4 iterations
        assert pred.level("L1").misses == 2 * n // 4
        # L2 lines are 64 B: one miss per 8
        assert pred.level("L2").misses == 2 * n // 8

    def test_cross_nest_residency_waives_cold_sweep(self, hier):
        b = ProgramBuilder("revisit")
        n = 64  # 512 B: fits both levels
        A = b.array("A", (n,))
        Bm = b.array("B", (n,))
        C = b.array("C", (n,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, n)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
        b.nest([b.loop(i, 1, n)], [b.assign(C[i], reads=[A[i]], flops=1)])
        p = b.build()
        # pad everything apart so no conflicts muddy the water
        layout = (
            DataLayout.sequential(p).add_pad("B", 64).add_pad("C", 128)
        )
        pred = predict_program(p, layout, hier)
        first, second = pred.nests
        # the second nest re-reads A, left resident by the first
        assert second.levels[0].misses < first.levels[0].misses

    def test_triangular_loops_predict_without_error(self, hier):
        p = get_kernel("linpackd").program(40)
        pred = predict_program(p, DataLayout.sequential(p), hier)
        assert pred.total_refs > 0
        assert all(lv.misses >= 0 for lv in pred.levels)


class TestPredictedStatsMirror:
    def test_levels_chain_and_clamp(self):
        stats = PredictedStats(
            total_refs=100,
            predictions=(
                LevelPrediction(name="L1", misses=250.0),  # clamped to 100
                LevelPrediction(name="L2", misses=30.4),  # rounds to 30
            ),
        )
        l1, l2 = stats.levels
        assert (l1.accesses, l1.misses) == (100, 100)
        assert (l2.accesses, l2.misses) == (100, 30)
        assert stats.memory_refs == 30
        assert stats.summary().startswith("predicted ")
        assert stats.result.total_refs == 100

    def test_validation(self):
        with pytest.raises(AnalysisError):
            PredictedStats(total_refs=-1, predictions=(LevelPrediction("L1", 0.0),))
        with pytest.raises(AnalysisError):
            PredictedStats(total_refs=1, predictions=())
        with pytest.raises(AnalysisError):
            LevelPrediction(name="L1", misses=-1.0)


class TestPredictJob:
    def test_matches_predict_program(self, pingpong, hier):
        layout = DataLayout.sequential(pingpong)
        job = SimJob(program=pingpong, layout=layout, hierarchy=hier)
        assert predict_job(job) == predict_program(pingpong, layout, hier)

    def test_nest_index_selects_one_nest(self, hier):
        b = ProgramBuilder("two")
        A = b.array("A", (64,))
        Bm = b.array("B", (64,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, 64)], [b.assign(Bm[i], reads=[A[i]], flops=1)])
        b.nest([b.loop(i, 1, 64)], [b.assign(A[i], reads=[Bm[i]], flops=1)])
        p = b.build()
        layout = DataLayout.sequential(p)
        job = SimJob(program=p, layout=layout, hierarchy=hier, nest_index=1)
        pred = predict_job(job)
        assert len(pred.nests) == 1
        assert pred.total_refs == 128

    def test_model_objective_counts_its_predictions(self, pingpong, hier):
        """Every predictor call a search makes shows in ``model.predictions``,
        as it does through ``SweepExecutor.predict``."""
        from repro.obs.metrics import get_metrics, reset_metrics, set_metrics
        from repro.search.objective import model_objective

        job = SimJob(
            program=pingpong, layout=DataLayout.sequential(pingpong),
            hierarchy=hier,
        )
        previous = get_metrics()
        registry = reset_metrics()
        try:
            objective = model_objective()
            objective(job)
            objective(job)
        finally:
            set_metrics(previous)
        assert registry.counter("model.predictions").value == 2


class TestValidationMetrics:
    def test_rankdata_ties_average(self):
        assert rankdata([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_spearman_perfect_and_reversed(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_spearman_degenerate(self):
        assert spearman([5, 5, 5], [5, 5, 5]) == 1.0  # both constant
        assert spearman([5, 5, 5], [1, 2, 3]) == 0.0  # one constant
        assert spearman([1.0], [2.0]) == 1.0
        with pytest.raises(ValueError):
            spearman([1, 2], [1])

    def test_mean_abs_rel_error(self):
        assert mean_abs_rel_error([110, 90], [100, 100]) == pytest.approx(0.1)
        assert mean_abs_rel_error([0, 0], [0, 0]) == 0.0  # both-zero exact
        assert mean_abs_rel_error([5], [0]) == 1.0  # false positive
        with pytest.raises(ValueError):
            mean_abs_rel_error([1], [1, 2])
