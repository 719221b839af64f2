"""Cache-layout diagrams: the paper's dots-and-arcs model (Figures 3-5, 7).

A diagram places every (deduplicated) reference of a nest at its position
modulo the cache size, evaluated at a canonical iteration.  Group-reuse
arcs connect consecutive uniformly generated references; an arc is
**exploited** when (a) its memory span is smaller than the cache and (b)
no other reference's dot lies strictly under it.

Why the "no dot under the arc" rule works: all references advance through
memory at the same rate, so data touched by the leading reference at cache
position ``x`` waits ``d`` bytes of sweep (the arc length) until the
trailing reference re-touches it.  Any reference currently positioned
inside the open interval ``(x - d, x)`` reaches ``x`` sooner than the
trailing reference and evicts the line first.  This is exactly the visual
criterion described with Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.groups import ReuseArc
from repro.analysis.nestinfo import NestAnalysis, nest_analysis
from repro.errors import AnalysisError
from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.layout.layout import DataLayout

__all__ = ["Dot", "Arc", "CacheDiagram", "arcs_exploited"]


@dataclass(frozen=True)
class Dot:
    """One reference's position on the cache ring."""

    ref: ArrayRef
    position: int
    multiplicity: int = 1


@dataclass(frozen=True)
class Arc:
    """A group-reuse arc drawn on the diagram."""

    reuse: ReuseArc
    trail_pos: int
    lead_pos: int
    exploited: bool


def arcs_exploited(
    info: NestAnalysis, positions: list[int], cache_size: int, line_size: int
) -> list[bool]:
    """Whether each of ``info.arcs`` is exploited, given every unique
    reference's position (address modulo ``cache_size``).

    No foreign dot may fall under the arc *or within one line of its
    endpoints* -- a dot superimposed on an endpoint is a severe conflict
    that flushes the reused data just as surely (Section 3.1.1: severe
    conflicts "would be illustrated by superimposing dots").
    """
    out = []
    for arc, (trail, lead) in zip(info.arcs, info.arc_refs):
        d = arc.distance_bytes
        if d < line_size:
            # Group-*spatial* reuse: both references ride the same cache
            # line, so the reuse survives any layout (and any level).
            out.append(True)
            continue
        if d + line_size > cache_size:
            out.append(False)  # the sweep itself flushes the data before reuse
            continue
        start = positions[trail]
        lo, hi = d + line_size, cache_size - line_size
        out.append(all(
            lo <= (p - start) % cache_size <= hi
            for k, p in enumerate(positions)
            if k != trail and k != lead  # the arc's own endpoints
        ))
    return out


class CacheDiagram:
    """Dots-and-arcs picture of one nest on one cache level."""

    def __init__(
        self,
        program: Program,
        layout: DataLayout,
        nest: LoopNest,
        cache_size: int,
        line_size: int = 1,
    ):
        if cache_size <= 0:
            raise AnalysisError("cache_size must be positive")
        self.program = program
        self.layout = layout
        self.nest = nest
        self.cache_size = cache_size
        self.line_size = line_size
        self._build()

    def _build(self) -> None:
        info = nest_analysis(self.program, self.nest)
        positions = [a % self.cache_size for a in info.addresses(self.layout)]
        self.dots: tuple[Dot, ...] = tuple(
            Dot(ref=r, position=p, multiplicity=m)
            for r, p, m in zip(info.refs, positions, info.multiplicity)
        )
        flags = arcs_exploited(info, positions, self.cache_size, self.line_size)
        self.arcs: tuple[Arc, ...] = tuple(
            Arc(reuse=arc, trail_pos=positions[t], lead_pos=positions[l],
                exploited=ok)
            for arc, (t, l), ok in zip(info.arcs, info.arc_refs, flags)
        )

    # -- summary metrics ---------------------------------------------------
    @property
    def exploited_arcs(self) -> tuple[Arc, ...]:
        return tuple(a for a in self.arcs if a.exploited)

    @property
    def exploited_count(self) -> int:
        return len(self.exploited_arcs)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def trailing_refs_exploited(self) -> set[ArrayRef]:
        """Trailing references whose group reuse is exploited on this cache."""
        return {a.reuse.trailing for a in self.arcs if a.exploited}

    # -- rendering -----------------------------------------------------------
    def render_ascii(self, width: int = 72) -> str:
        """ASCII rendition: one box per nest, dots labeled by array name.

        Matches the visual idiom of the paper's figures well enough to be
        read the same way (arcs listed below the box with their status).
        """
        scale = self.cache_size / width
        row = ["-"] * width
        for dot in self.dots:
            col = min(width - 1, int(dot.position / scale))
            label = dot.ref.array[0]
            row[col] = label if row[col] == "-" else "*"
        lines = ["[" + "".join(row) + "]  (cache size %d)" % self.cache_size]
        for arc in self.arcs:
            status = "exploited" if arc.exploited else "LOST"
            lines.append(
                f"  arc {arc.reuse.trailing!r} <- {arc.reuse.leading!r} "
                f"span={arc.reuse.distance_bytes}B: {status}"
            )
        return "\n".join(lines)
