"""Loops, statements, and perfect loop nests.

A :class:`LoopNest` is a perfect nest -- loops from outermost to innermost
wrapping a straight-line body of :class:`Statement` objects.  That covers
every program in the paper (Figures 1, 2, 6, 8); imperfect constructs such
as LINPACKD's pivot search are modeled as adjacent nests (see
``repro.kernels``).  Loop bounds are affine in *enclosing* loop variables,
which is what triangular nests (Gaussian elimination) and tiled nests
(``min`` bounds are pre-clipped by the tiling transform) need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IRError
from repro.ir.affine import AffineExpr
from repro.ir.refs import ArrayRef

__all__ = ["Loop", "Statement", "LoopNest"]


@dataclass(frozen=True)
class Loop:
    """A DO loop: ``do var = lower, upper, step`` (inclusive bounds).

    ``extra_uppers`` holds additional upper bounds (effective upper is
    ``min(upper, *extra_uppers)``) -- tiling introduces these
    (``do I = II, min(II+H-1, N)``, Figure 8).  ``extra_lowers`` is the
    symmetric ``max(lower, *extra_lowers)`` form that skewed time-step
    tiling needs (Song & Li [25], Section 5's exception).  They are the
    only non-affine constructs the IR needs.
    """

    var: str
    lower: AffineExpr
    upper: AffineExpr
    step: int = 1
    extra_uppers: tuple[AffineExpr, ...] = ()
    extra_lowers: tuple[AffineExpr, ...] = ()

    def __post_init__(self) -> None:
        if not self.var:
            raise IRError("loop variable must be named")
        object.__setattr__(self, "lower", AffineExpr.wrap(self.lower))
        object.__setattr__(self, "upper", AffineExpr.wrap(self.upper))
        object.__setattr__(
            self, "extra_uppers", tuple(AffineExpr.wrap(e) for e in self.extra_uppers)
        )
        object.__setattr__(
            self, "extra_lowers", tuple(AffineExpr.wrap(e) for e in self.extra_lowers)
        )
        if self.step == 0:
            raise IRError(f"loop {self.var}: step must be non-zero")
        for bound in self.all_bounds:
            if bound.depends_on(self.var):
                raise IRError(
                    f"loop {self.var}: bounds may not reference the loop variable"
                )
        if (self.extra_uppers or self.extra_lowers) and self.step < 0:
            raise IRError(
                f"loop {self.var}: min/max-style bounds require a positive step"
            )

    @property
    def all_bounds(self) -> tuple[AffineExpr, ...]:
        return (self.lower, self.upper) + self.extra_uppers + self.extra_lowers

    @property
    def uppers(self) -> tuple[AffineExpr, ...]:
        return (self.upper,) + self.extra_uppers

    @property
    def lowers(self) -> tuple[AffineExpr, ...]:
        return (self.lower,) + self.extra_lowers

    @property
    def is_rectangular(self) -> bool:
        """True when every bound is a compile-time constant."""
        return all(b.is_constant for b in self.all_bounds)

    def effective_upper(self, env) -> int:
        """Evaluate ``min(upper, *extra_uppers)`` at concrete outer indices."""
        return min(int(u.evaluate(env)) for u in self.uppers)

    def effective_lower(self, env) -> int:
        """Evaluate ``max(lower, *extra_lowers)`` at concrete outer indices."""
        return max(int(l.evaluate(env)) for l in self.lowers)

    def concrete_trip(self, env) -> tuple[int, int]:
        """``(first value, trip count)`` at concrete outer indices.

        The loop's value set is the arithmetic progression
        ``first + step*j`` for ``j in range(count)`` -- exactly the
        values the trace generator walks, so footprint enumeration and
        trace generation cannot disagree on which indices execute.
        """
        lo = self.effective_lower(env)
        hi = self.effective_upper(env)
        count = (hi - lo) // self.step + 1 if (hi - lo) * self.step >= 0 else 0
        return lo, max(0, count)

    def trip_count(self) -> int:
        """Iteration count for constant bounds (raises otherwise)."""
        if not self.is_rectangular:
            raise IRError(f"loop {self.var} has symbolic bounds")
        lo = max(l.constant for l in self.lowers)
        hi = min(u.constant for u in self.uppers)
        if self.step > 0:
            return max(0, (hi - lo) // self.step + 1) if hi >= lo else 0
        return max(0, (lo - hi) // (-self.step) + 1) if lo >= hi else 0

    def reversed(self) -> "Loop":
        """The same iteration set walked in the opposite order."""
        if not self.is_rectangular:
            raise IRError(f"cannot reverse loop {self.var} with symbolic bounds")
        if self.extra_uppers or self.extra_lowers:
            raise IRError(f"cannot reverse loop {self.var} with min/max bounds")
        lo, st = self.lower.constant, self.step
        count = self.trip_count()
        last = lo + (count - 1) * st if count else lo
        return Loop(self.var, AffineExpr.wrap(last), AffineExpr.wrap(lo), -st)

    def __repr__(self) -> str:
        s = f", {self.step}" if self.step != 1 else ""
        return f"do {self.var} = {self.lower!r}, {self.upper!r}{s}"


@dataclass(frozen=True)
class Statement:
    """One assignment: ordered reads followed by an optional write.

    ``refs`` lists *all* memory operands in the order the generated code
    touches them (reads in textual order, then the store); that order is
    exactly the order addresses enter the simulated trace.  ``flops``
    counts floating-point operations for the MFLOPS model; ``label`` is
    for diagnostics.
    """

    refs: tuple[ArrayRef, ...]
    flops: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "refs", tuple(self.refs))
        if not self.refs:
            raise IRError("statement must reference at least one array")
        for r in self.refs:
            if not isinstance(r, ArrayRef):
                raise IRError(f"statement operand {r!r} is not an ArrayRef")
        if self.flops < 0:
            raise IRError("flops must be non-negative")
        writes = [r for r in self.refs if r.is_write]
        if len(writes) > 1:
            raise IRError("statement may have at most one store")

    @property
    def reads(self) -> tuple[ArrayRef, ...]:
        return tuple(r for r in self.refs if not r.is_write)

    @property
    def write(self) -> ArrayRef | None:
        for r in self.refs:
            if r.is_write:
                return r
        return None

    def substitute(self, name: str, replacement) -> "Statement":
        return Statement(
            tuple(r.substitute(name, replacement) for r in self.refs),
            self.flops,
            self.label,
        )

    def rename(self, mapping) -> "Statement":
        return Statement(
            tuple(r.rename(mapping) for r in self.refs), self.flops, self.label
        )


@dataclass(frozen=True)
class LoopNest:
    """A perfect loop nest: ``loops`` outermost-first around ``body``."""

    loops: tuple[Loop, ...]
    body: tuple[Statement, ...]
    label: str = ""

    #: The cached :class:`repro.analysis.nestinfo.NestAnalysis` (not a
    #: field): set on first use by ``nest_analysis``, never pickled,
    #: compared, hashed or canonicalized.
    _analysis = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "loops", tuple(self.loops))
        object.__setattr__(self, "body", tuple(self.body))
        if not self.loops:
            raise IRError("nest needs at least one loop")
        if not self.body:
            raise IRError("nest needs at least one statement")
        seen: set[str] = set()
        for lp in self.loops:
            if lp.var in seen:
                raise IRError(f"duplicate loop variable {lp.var!r} in nest")
            seen.add(lp.var)
        # Bounds may reference only *outer* loop variables.
        outer: set[str] = set()
        for lp in self.loops:
            for bound in lp.all_bounds:
                for v in bound.variables:
                    if v not in outer:
                        raise IRError(
                            f"loop {lp.var}: bound uses {v!r}, which is not an "
                            f"enclosing loop variable"
                        )
            outer.add(lp.var)
        for st in self.body:
            for ref in st.refs:
                for v in ref.variables:
                    if v not in seen:
                        raise IRError(
                            f"reference {ref!r} uses unknown loop variable {v!r}"
                        )

    def __getstate__(self) -> dict:
        # Pickles carry the fields alone; the analysis is rebuilt on use.
        state = self.__dict__
        if "_analysis" in state:
            state = {k: v for k, v in state.items() if k != "_analysis"}
        return state

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(lp.var for lp in self.loops)

    @property
    def refs(self) -> tuple[ArrayRef, ...]:
        """All references in statement order."""
        out: list[ArrayRef] = []
        for st in self.body:
            out.extend(st.refs)
        return tuple(out)

    @property
    def refs_per_iteration(self) -> int:
        return sum(len(st.refs) for st in self.body)

    @property
    def flops_per_iteration(self) -> int:
        return sum(st.flops for st in self.body)

    @property
    def is_rectangular(self) -> bool:
        return all(lp.is_rectangular for lp in self.loops)

    def concrete_from(self, level: int) -> bool:
        """True when the sub-nest from ``level`` inward is rectangular once
        outer indices are fixed.

        Holds when no bound from ``level`` inward references a loop
        variable at or inside ``level`` -- the condition both the trace
        generator and the symbolic footprint enumeration need before they
        may treat the remaining loops as an independent product space.
        """
        inner_vars = {lp.var for lp in self.loops[level:]}
        return not any(
            v in inner_vars
            for lp in self.loops[level:]
            for bound in lp.all_bounds
            for v in bound.variables
        )

    def iterations(self) -> int:
        """Total iteration count.

        Rectangular nests multiply trip counts; nests with symbolic bounds
        (triangular) are counted by walking the loops whose bounds others
        depend on in Python and multiplying out the rest -- exact, and
        cheap because only outer loops carry dependences in practice.
        """
        if self.is_rectangular:
            n = 1
            for lp in self.loops:
                n *= lp.trip_count()
            return n

        def count(level: int, env: dict[str, int]) -> int:
            if level == self.depth:
                return 1
            remaining = self.loops[level:]
            inner_vars = {lp.var for lp in remaining}
            concrete = all(
                not any(v in inner_vars for v in b.variables)
                for lp in remaining
                for b in lp.all_bounds
            )
            if concrete:
                total = 1
                for lp in remaining:
                    lo = lp.effective_lower(env)
                    hi = lp.effective_upper(env)
                    span = (hi - lo) // lp.step + 1 if (hi - lo) * lp.step >= 0 else 0
                    total *= max(0, span)
                return total
            lp = self.loops[level]
            lo = lp.effective_lower(env)
            hi = lp.effective_upper(env)
            total = 0
            for value in range(lo, hi + (1 if lp.step > 0 else -1), lp.step):
                child = dict(env)
                child[lp.var] = value
                total += count(level + 1, child)
            return total

        return count(0, {})

    def arrays_used(self) -> tuple[str, ...]:
        return tuple(sorted({r.array for r in self.refs}))

    def innermost(self) -> Loop:
        return self.loops[-1]

    def with_loops(self, loops: tuple[Loop, ...]) -> "LoopNest":
        return LoopNest(loops, self.body, self.label)

    def with_body(self, body: tuple[Statement, ...]) -> "LoopNest":
        return LoopNest(self.loops, body, self.label)
