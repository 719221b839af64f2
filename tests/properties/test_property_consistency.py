"""Consistency properties between parallel implementations.

The dots-and-arcs exploitation test lives in
:class:`repro.layout.diagram.CacheDiagram` (evaluation) *and* in
GROUPPAD's layout-search scorer (optimization); these hypothesis tests
keep the two from drifting apart.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CacheDiagram, DataLayout, ProgramBuilder
from repro.transforms.grouppad import _exploited_counts, _nest_infos
from repro.transforms.pad import _PadCandidates

L1, LINE = 16 * 1024, 32


@st.composite
def stencil_layouts(draw):
    """A multi-array column-stencil program plus random pads."""
    narrays = draw(st.integers(2, 4))
    n = draw(st.sampled_from([256, 512, 896, 1024]))
    b = ProgramBuilder("p")
    handles = [b.array(f"A{k}", (n, 8)) for k in range(narrays)]
    i, j = b.vars("i", "j")
    stmts = [b.use(reads=[h[i, j], h[i, j + 1]], flops=1) for h in handles]
    b.nest([b.loop(j, 1, 7), b.loop(i, 1, n)], stmts)
    prog = b.build()
    layout = DataLayout.sequential(prog)
    for h in handles[1:]:
        layout = layout.add_pad(h.name, draw(st.integers(0, 511)) * 32)
    return prog, layout


class TestDiagramScorerAgreement:
    @given(data=stencil_layouts())
    @settings(max_examples=40, deadline=None)
    def test_grouppad_scorer_matches_diagram(self, data):
        """For any layout, GROUPPAD's vectorized scorer, run at the single
        candidate "no extra pad", must count exactly the group-temporal arcs
        the CacheDiagram marks exploited."""
        prog, layout = data
        diagram_count = 0
        for nest in prog.nests:
            d = CacheDiagram(prog, layout, nest, L1, LINE)
            diagram_count += sum(
                1
                for a in d.arcs
                if a.exploited and a.reuse.distance_bytes >= LINE
            )
        cands = _PadCandidates.of(layout, layout.order[-1], [0])
        (scorer_count,) = _exploited_counts(
            _nest_infos(prog), cands, set(prog.array_names), L1, LINE
        )
        assert scorer_count == diagram_count

