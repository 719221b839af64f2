"""Analytic miss prediction vs the simulator.

Section 6.4's claim -- "the compiler can predict relative cache miss rates
fairly accurately by analyzing group reuse" -- is tested literally: the
closed-form predictor's ordering of layouts must agree with simulation.
"""

import pytest

from repro import DataLayout, simulate_program, ultrasparc_i
from repro.analysis.costmodel import MissCostModel
from repro.model.predictor import predict_nest
from repro.transforms.grouppad import grouppad
from repro.transforms.pad import pad
from tests.conftest import build_fig2


@pytest.fixture(scope="module")
def hier():
    return ultrasparc_i()


class TestMissCostModel:
    def test_from_hierarchy(self, hier):
        m = MissCostModel.from_hierarchy(hier)
        assert m.l1_miss_cost == hier.l2.hit_cycles
        assert m.l2_miss_cost == hier.memory_cycles

    def test_weighted(self):
        m = MissCostModel(l1_miss_cost=2.0, l2_miss_cost=10.0)
        assert m.weighted(5, 3) == 40.0


class TestAnalyticEstimates:
    def test_estimate_tracks_simulation_ordering(self, hier):
        """Resonant layout must be predicted worse than the padded one, at
        both levels, matching simulation."""
        prog = build_fig2(2048)  # resonant: everything collides
        seq = DataLayout.sequential(prog)
        padded = pad(prog, seq, hier.l1.size, hier.l1.line_size)

        est_bad = predict_nest(prog, seq, prog.nests[0], hier)
        est_good = predict_nest(prog, padded, prog.nests[0], hier)
        assert est_good.levels[0].misses <= est_bad.levels[0].misses

        sim_bad = simulate_program(prog, seq, hier)
        sim_good = simulate_program(prog, padded, hier)
        assert sim_good.miss_rate("L1") < sim_bad.miss_rate("L1")

    def test_grouppad_prediction_close_to_simulation(self, hier):
        """Absolute agreement on a clean stencil: GROUPPAD layout's
        predicted L1 miss rate within a few points of simulation."""
        prog = build_fig2(896)
        layout = grouppad(
            prog, DataLayout.sequential(prog), hier.l1.size, hier.l1.line_size
        )
        est_rates = []
        for nest in prog.nests:
            est = predict_nest(prog, layout, nest, hier)
            est_rates.append((est.levels[0].misses, est.total_refs))
        predicted = sum(m for m, _ in est_rates) / sum(t for _, t in est_rates)
        simulated = simulate_program(prog, layout, hier).miss_rate("L1")
        assert abs(predicted - simulated) < 0.05
