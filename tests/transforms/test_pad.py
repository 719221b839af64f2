"""PAD and MULTILVLPAD postconditions."""

import pytest

from repro import DataLayout, simulate_program, ultrasparc_i
from repro.errors import TransformError
from repro.layout.conflicts import program_severe_conflicts
from repro.transforms.pad import multilvl_pad, pad, pad_explicit_levels
from tests.conftest import build_fig2


@pytest.fixture(scope="module")
def hier():
    return ultrasparc_i()


@pytest.fixture(scope="module")
def resonant():
    prog = build_fig2(2048)  # arrays are exact multiples of both caches
    return prog, DataLayout.sequential(prog)


class TestPad:
    def test_postcondition_no_severe_conflicts(self, resonant, hier):
        prog, seq = resonant
        out = pad(prog, seq, hier.l1.size, hier.l1.line_size)
        assert program_severe_conflicts(
            prog, out, hier.l1.size, hier.l1.line_size
        ).is_clean

    def test_needs_only_a_few_lines_per_variable(self, resonant, hier):
        """'In practice, PAD requires only a few cache lines of padding
        per variable' [20]."""
        prog, seq = resonant
        out = pad(prog, seq, hier.l1.size, hier.l1.line_size)
        for p in out.pads:
            assert p <= 4 * hier.l1.line_size

    def test_first_variable_never_padded(self, resonant, hier):
        prog, seq = resonant
        out = pad(prog, seq, hier.l1.size, hier.l1.line_size)
        assert out.pads[0] == seq.pads[0]

    def test_clean_program_unchanged(self, hier):
        prog = build_fig2(100)  # non-resonant
        seq = DataLayout.sequential(prog)
        assert pad(prog, seq, hier.l1.size, hier.l1.line_size) == seq

    def test_miss_rate_improves(self, hier):
        """The DOT scenario: two vectors exactly one L1 cache in size
        ping-pong on every access until PAD separates them."""
        from repro import ProgramBuilder

        b = ProgramBuilder("dotlike")
        n = hier.l1.size // 8
        X = b.array("X", (n,))
        Y = b.array("Y", (n,))
        (i,) = b.vars("i")
        b.nest([b.loop(i, 1, n)], [b.use(reads=[X[i], Y[i]], flops=2)])
        prog = b.build()
        seq = DataLayout.sequential(prog)
        out = pad(prog, seq, hier.l1.size, hier.l1.line_size)
        before = simulate_program(prog, seq, hier)
        after = simulate_program(prog, out, hier)
        assert before.miss_rate("L1") == 1.0  # severe ping-pong
        assert after.miss_rate("L1") < before.miss_rate("L1") / 2

    def test_exhaustion_raises(self, resonant):
        prog, seq = resonant
        with pytest.raises(TransformError):
            pad(prog, seq, 16 * 1024, 32, max_lines_per_var=0)

    def test_limit_beyond_one_cache_adds_no_work(self, resonant):
        """Offsets past a full cache of lines repeat earlier positions, so a
        huge line limit scores no more candidates than the default."""
        prog, seq = resonant
        assert pad(prog, seq, 16 * 1024, 32, max_lines_per_var=10**12) == pad(
            prog, seq, 16 * 1024, 32
        )

    def test_invalid_geometry_rejected(self, resonant):
        prog, seq = resonant
        with pytest.raises(TransformError):
            pad(prog, seq, 1000, 32)
        with pytest.raises(TransformError):
            pad(prog, seq, 1024, 0)


class TestMultiLvlPad:
    def test_clean_on_every_level(self, resonant, hier):
        prog, seq = resonant
        out = multilvl_pad(prog, seq, hier)
        for cfg in hier:
            assert program_severe_conflicts(
                prog, out, cfg.size, cfg.line_size
            ).is_clean

    def test_uses_lmax_separation(self, resonant, hier):
        """Pads come in units of the largest line size (64B here)."""
        prog, seq = resonant
        out = multilvl_pad(prog, seq, hier)
        for p in out.pads:
            assert p % hier.max_line_size == 0

    def test_explicit_levels_agrees_on_cleanliness(self, resonant, hier):
        prog, seq = resonant
        out = pad_explicit_levels(prog, seq, hier)
        for cfg in hier:
            assert program_severe_conflicts(
                prog, out, cfg.size, cfg.line_size
            ).is_clean

    def test_l2_miss_rate_not_worse_than_pad(self, resonant, hier):
        """Figure 9's comparison: MULTILVLPAD should be at least as good
        as PAD on the L2 cache."""
        prog, seq = resonant
        l1_only = pad(prog, seq, hier.l1.size, hier.l1.line_size)
        both = multilvl_pad(prog, seq, hier)
        r_l1 = simulate_program(prog, l1_only, hier)
        r_both = simulate_program(prog, both, hier)
        assert r_both.miss_rate("L2") <= r_l1.miss_rate("L2") + 1e-9
