"""GROUPPAD and its multi-level recursion."""

import pytest

from repro import (
    CacheDiagram,
    DataLayout,
    ProgramBuilder,
    simulate_program,
    ultrasparc_i,
)
from repro.errors import TransformError
from repro.fuzz.generator import fuzzed_workloads
from repro.kernels.registry import KERNELS
from repro.layout.conflicts import program_severe_conflicts
from repro.transforms.grouppad import _nest_infos, grouppad, grouppad_recursive
from repro.transforms.pad import (
    _pair_deltas,
    multilvl_pad,
    pad,
    pad_explicit_levels,
)
from tests.conftest import build_fig2

L1, LINE = 16 * 1024, 32


def exploited_total(prog, layout, cache, line):
    return sum(
        CacheDiagram(prog, layout, nest, cache, line).exploited_count
        for nest in prog.nests
    )


@pytest.fixture(scope="module")
def hier():
    return ultrasparc_i()


@pytest.fixture(scope="module")
def fig3_scale():
    """Columns at 7 KB on the 16 KB cache (Figure 3's proportions)."""
    prog = build_fig2(896)
    return prog, DataLayout.sequential(prog)


class TestGroupPad:
    def test_avoids_severe_conflicts(self, fig3_scale):
        prog, seq = fig3_scale
        out = grouppad(prog, seq, L1, LINE)
        assert program_severe_conflicts(prog, out, L1, LINE).is_clean

    def test_beats_pad_on_exploited_arcs(self, fig3_scale):
        """GROUPPAD's objective: at least as many exploited arcs as PAD,
        whose small pads leave arcs covered (Figure 3 vs Figure 4)."""
        prog, seq = fig3_scale
        via_pad = pad(prog, seq, L1, LINE)
        via_gp = grouppad(prog, seq, L1, LINE)
        assert exploited_total(prog, via_gp, L1, LINE) >= exploited_total(
            prog, via_pad, L1, LINE
        )

    def test_exploits_b_reuse_in_nest2(self, fig3_scale):
        """Figure 4: 'all group reuse between B references is preserved'."""
        prog, seq = fig3_scale
        out = grouppad(prog, seq, L1, LINE)
        d = CacheDiagram(prog, out, prog.nests[1], L1, LINE)
        b_arcs = [a for a in d.arcs if a.reuse.array == "B"]
        assert all(a.exploited for a in b_arcs)

    def test_improves_miss_rate_over_pad(self, hier):
        prog = build_fig2(512)  # column 4K: cache holds 4 columns
        seq = DataLayout.sequential(prog)
        r_pad = simulate_program(prog, pad(prog, seq, L1, LINE), hier)
        r_gp = simulate_program(prog, grouppad(prog, seq, L1, LINE), hier)
        assert r_gp.miss_rate("L1") <= r_pad.miss_rate("L1") + 1e-9

    def test_refinement_never_loses_arcs(self, fig3_scale):
        prog, seq = fig3_scale
        greedy = grouppad(prog, seq, L1, LINE, refine_passes=0)
        refined = grouppad(prog, seq, L1, LINE, refine_passes=2)
        assert exploited_total(prog, refined, L1, LINE) >= exploited_total(
            prog, greedy, L1, LINE
        )

    def test_granularity_must_divide_cache(self, fig3_scale):
        prog, seq = fig3_scale
        with pytest.raises(TransformError):
            grouppad(prog, seq, L1, LINE, granularity=1000)


class TestGroupPadRecursive:
    def test_preserves_l1_layout_modulo_s1(self, fig3_scale, hier):
        prog, seq = fig3_scale
        l1_only = grouppad(prog, seq, hier.l1.size, hier.l1.line_size)
        multi = grouppad_recursive(prog, seq, hier)
        for name in prog.array_names:
            assert (multi.base(name) - l1_only.base(name)) % hier.l1.size == 0

    def test_l2_exploitation_not_worse(self, fig3_scale, hier):
        prog, seq = fig3_scale
        l1_only = grouppad(prog, seq, hier.l1.size, hier.l1.line_size)
        multi = grouppad_recursive(prog, seq, hier)
        assert exploited_total(
            prog, multi, hier.l2.size, hier.l2.line_size
        ) >= exploited_total(prog, l1_only, hier.l2.size, hier.l2.line_size)


# -- reference: one layout per candidate, scalar scoring -----------------------
#
# The transforms score every candidate pad in one vectorized pass.  These
# references build each candidate layout with ``with_pad`` and score it
# with plain integer arithmetic, the definition the vectorized pass must
# reproduce exactly.


def ref_conflict(bases, name, others, deltas, cache_sizes, line):
    for other in others:
        pair = (name, other) if name < other else (other, name)
        for d in deltas.get(pair, ()):
            total = bases[pair[0]] - bases[pair[1]] + int(d)
            for size in cache_sizes:
                t = total % size
                if min(t, size - t) < line:
                    return True
    return False


def ref_exploited(infos, bases, subset, cache, line):
    count = 0
    for info in infos:
        dots = [(arr, rel) for arr, rel in info.dots if arr in subset]
        for arr, trail, span in info.arcs:
            if arr not in subset or span < line or span + line > cache:
                continue
            start = bases[arr] + trail
            count += all(
                (parr == arr and prel in (trail, trail + span))
                or span + line <= (bases[parr] + prel - start) % cache
                <= cache - line
                for parr, prel in dots
            )
    return count


def ref_grouppad(prog, layout, cache, line, granularity=None,
                 avoid_conflicts=True, refine_passes=1):
    g = granularity or line
    infos, deltas = _nest_infos(prog), _pair_deltas(prog)

    def best(cur, name, others, base_pad):
        keys = []
        for k in range(cache // g):
            bases = cur.with_pad(name, base_pad + k * g).bases()
            conflict = avoid_conflicts and ref_conflict(
                bases, name, others, deltas, [cache], line
            )
            score = ref_exploited(infos, bases, others | {name}, cache, line)
            keys.append((not conflict, score, -k))
        return base_pad - max(keys)[2] * g

    out, placed = layout, set()
    for name in layout.order:
        if placed:
            base_pad = out.pads[out.index_of(name)]
            out = out.with_pad(name, best(out, name, placed, base_pad))
        placed.add(name)
    for _ in range(refine_passes):
        before = out
        for name in layout.order[1:]:
            base_pad = out.pads[out.index_of(name)] % g
            others = set(layout.order) - {name}
            out = out.with_pad(name, best(out, name, others, base_pad))
        if out == before:
            break
    return out


def ref_grouppad_recursive(prog, layout, hier):
    l1 = hier.levels[0]
    out = ref_grouppad(prog, layout, l1.size, l1.line_size)
    infos = _nest_infos(prog)
    for prev, cfg in zip(hier.levels, hier.levels[1:]):
        placed = set()
        for name in out.order:
            if placed:
                base_pad = out.pads[out.index_of(name)]
                scores = [
                    ref_exploited(
                        infos, out.with_pad(name, base_pad + m * prev.size)
                        .bases(), placed | {name}, cfg.size, cfg.line_size,
                    )
                    for m in range(cfg.size // prev.size)
                ]
                m = scores.index(max(scores))
                out = out.with_pad(name, base_pad + m * prev.size)
            placed.add(name)
    return out


def ref_pad(prog, layout, cache_sizes, line):
    deltas = _pair_deltas(prog)
    limit = max(cache_sizes) // line
    out, placed = layout, []
    for name in layout.order:
        tries = 0
        while placed and ref_conflict(
            out.bases(), name, placed, deltas, cache_sizes, line
        ):
            tries += 1
            if tries > limit:
                raise TransformError(
                    f"PAD could not free {name!r} of severe conflicts within "
                    f"{limit} lines of padding"
                )
            out = out.add_pad(name, line)
        placed.append(name)
    return out


SMALL_CACHE, SMALL_LINE = 2048, 32
OPTIONS = [
    dict(granularity=g, avoid_conflicts=avoid, refine_passes=passes)
    for g in (SMALL_LINE, 2 * SMALL_LINE)
    for avoid in (True, False)
    for passes in (1, 2)
]


DIFF_PROGRAMS = {
    **{name: kernel.program(32) for name, kernel in KERNELS.items()},
    **{f"fuzz{seed}": prog for seed, prog, _ in fuzzed_workloads(3, 25)},
}


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TransformError as exc:
        return str(exc)


class TestMatchesPerCandidateReference:
    """Scoring all pads at once picks the same pads as trying them one
    layout at a time, on Table-1 kernels and fuzzed programs alike."""

    @pytest.mark.parametrize("name", sorted(DIFF_PROGRAMS))
    def test_grouppad(self, name):
        prog = DIFF_PROGRAMS[name]
        seq = DataLayout.sequential(prog)
        for opts in OPTIONS:
            assert grouppad(
                prog, seq, SMALL_CACHE, SMALL_LINE, **opts
            ) == ref_grouppad(prog, seq, SMALL_CACHE, SMALL_LINE, **opts), opts

    @pytest.mark.parametrize("name", sorted(DIFF_PROGRAMS))
    def test_pad_variants(self, name, hier):
        prog = DIFF_PROGRAMS[name]
        seq = DataLayout.sequential(prog)
        assert _outcome(pad, prog, seq, SMALL_CACHE, SMALL_LINE) == _outcome(
            ref_pad, prog, seq, [SMALL_CACHE], SMALL_LINE
        )
        virtual = hier.multilevel_pad_config()
        assert _outcome(multilvl_pad, prog, seq, hier) == _outcome(
            ref_pad, prog, seq, [virtual.size], virtual.line_size
        )
        assert _outcome(pad_explicit_levels, prog, seq, hier) == _outcome(
            ref_pad, prog, seq, [c.size for c in hier], hier.max_line_size
        )

    @pytest.mark.parametrize("kernel", ["expl", "jacobi", "shal"])
    def test_full_size_l1_and_recursion(self, kernel, hier):
        prog = KERNELS[kernel].program(64)
        seq = DataLayout.sequential(prog)
        assert grouppad(
            prog, seq, hier.l1.size, hier.l1.line_size
        ) == ref_grouppad(prog, seq, hier.l1.size, hier.l1.line_size)
        assert grouppad_recursive(prog, seq, hier) == ref_grouppad_recursive(
            prog, seq, hier
        )

    def test_no_conflict_free_position(self):
        """Every position of B conflicts with A: GROUPPAD then takes the
        best-scoring conflicting position (not the first), and PAD gives up
        with its usual error."""
        cache, line, n = 256, 32, 64
        b = ProgramBuilder("everywhere")
        A, B = b.array("A", (n,)), b.array("B", (n,))
        (i,) = b.vars("i")
        reads = [A[i], A[i + 31]] + [B[i + k] for k in (0, 7, 14, 22, 24)]
        b.nest([b.loop(i, 1, n - 32)], [b.use(reads=reads, flops=1)])
        prog = b.build()
        seq = DataLayout.sequential(prog)
        for g in (8, 16):
            for passes in (1, 2):
                out = grouppad(prog, seq, cache, line, granularity=g,
                               refine_passes=passes)
                assert out.pads[1] > 0
                assert out == ref_grouppad(prog, seq, cache, line,
                                           granularity=g, refine_passes=passes)
        with pytest.raises(TransformError, match="could not free 'B'"):
            pad(prog, seq, cache, line)
        assert _outcome(pad, prog, seq, cache, line) == _outcome(
            ref_pad, prog, seq, [cache], line
        )
