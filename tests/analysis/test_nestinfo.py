"""The cached per-nest analysis against per-call recomputation.

Every consumer of :func:`repro.analysis.nestinfo.nest_analysis` must
produce exactly what it produced when it recomputed the nest's facts on
each call.  The ``ref_*`` functions below are that per-call code, kept
as the reference: they rebuild offsets, dedupe references and derive
classes, arcs, diagrams, clusters, predictions and classifications from
scratch.  The checks run on fuzzed programs (hypothesis) and on every
Table-1 kernel at n=32, under the symbolic cross-validation hierarchies
and the UltraSparc-I, each consumer called twice so the second call reads
a warm cache.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataLayout, ultrasparc_i
from repro.analysis.footprint import (
    nest_footprint_bytes,
    ref_lines_lower_bound,
    ref_span_bytes,
)
from repro.analysis.groups import ReuseArc, UniformClass, reuse_arcs, uniform_classes
from repro.analysis.nestinfo import nest_analysis
from repro.errors import IRError
from repro.exec.cost import estimate_job_lines, job_cost
from repro.exec.hashing import job_key, program_fingerprint
from repro.exec.jobs import SimJob
from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES
from repro.fuzz.generator import fuzzed_workloads
from repro.ir.ranges import affine_interval, canonical_env, loop_var_ranges
from repro.ir.refs import ArrayRef
from repro.kernels.registry import KERNELS
from repro.layout.diagram import CacheDiagram
from repro.model.conflicts import ThrashCluster, thrash_clusters
from repro.model.predictor import LevelPrediction, predict_job, predict_program
from repro.symbolic.engine import LevelClassification, classify_job, classify_program
from repro.symbolic.lines import (
    distinct_lines,
    distinct_offsets,
    max_set_occupancy,
    ref_distinct_offsets,
)
from repro.util.mathutil import circular_distance

HIERARCHIES = {**CROSSVAL_HIERARCHIES, "ultrasparc": ultrasparc_i()}
AFFINE_KERNELS = sorted(n for n, k in KERNELS.items() if k.custom_trace is None)


# -- the per-call reference ----------------------------------------------------


def ref_unique(nest):
    uniq, counts = [], []
    for r in nest.refs:
        key = ArrayRef(r.array, r.subscripts, is_write=False)
        for i, u in enumerate(uniq):
            if u.array == key.array and u.subscripts == key.subscripts:
                counts[i] += 1
                break
        else:
            uniq.append(key)
            counts.append(1)
    return uniq, counts


def ref_offset(program, ref):
    return ref.offset_expr(program.decl(ref.array))


def ref_classes(program, nest):
    uniq, counts = ref_unique(nest)
    assigned = [False] * len(uniq)
    classes = []
    for i, ref in enumerate(uniq):
        if assigned[i]:
            continue
        members = [(ref, counts[i])]
        assigned[i] = True
        for j in range(i + 1, len(uniq)):
            if not assigned[j] and ref.is_uniformly_generated_with(uniq[j]):
                members.append((uniq[j], counts[j]))
                assigned[j] = True
        base = ref_offset(program, ref)
        keyed = sorted(
            (((ref_offset(program, r) - base).constant, r, m) for r, m in members),
            key=lambda t: t[0],
        )
        lo = keyed[0][0]
        classes.append(UniformClass(
            array=ref.array,
            refs=tuple(r for _, r, _ in keyed),
            offsets=tuple(o - lo for o, _, _ in keyed),
            multiplicity=tuple(m for _, _, m in keyed),
        ))
    return classes


def ref_arcs(program, nest):
    return [
        ReuseArc(c.array, r1, r2, o2 - o1)
        for c in ref_classes(program, nest)
        for (r1, o1), (r2, o2) in zip(
            zip(c.refs, c.offsets), zip(c.refs[1:], c.offsets[1:])
        )
    ]


def ref_position(program, layout, nest, ref, cache_size):
    env = canonical_env(nest)
    addr = layout.base(ref.array) + int(ref_offset(program, ref).evaluate(env))
    return addr % cache_size


def ref_diagram(program, layout, nest, cache_size, line):
    """``(dots, arcs)`` as ``(ref, position, multiplicity)`` and
    ``(arc, trail_pos, lead_pos, exploited)`` tuples."""
    uniq, counts = ref_unique(nest)
    dots = [
        (r, ref_position(program, layout, nest, r, cache_size), m)
        for r, m in zip(uniq, counts)
    ]
    arcs = []
    for arc in ref_arcs(program, nest):
        trail = ref_position(program, layout, nest, arc.trailing, cache_size)
        lead = ref_position(program, layout, nest, arc.leading, cache_size)
        d = arc.distance_bytes
        if d < line:
            ok = True
        elif d + line > cache_size:
            ok = False
        else:
            ok = True
            for r, pos, _ in dots:
                if r.array == arc.array and r.subscripts in (
                    arc.trailing.subscripts, arc.leading.subscripts
                ):
                    continue
                rel = (pos - trail) % cache_size
                if rel < d + line or rel > cache_size - line:
                    ok = False
                    break
        arcs.append((arc, trail, lead, ok))
    return dots, arcs


def ref_thrash_clusters(program, layout, nest, cache):
    period = cache.size // cache.associativity
    env = canonical_env(nest)
    refs, _ = ref_unique(nest)
    offs = [ref_offset(program, r) for r in refs]
    addrs = [layout.base(r.array) + int(o.evaluate(env)) for r, o in zip(refs, offs)]
    parent = list(range(len(refs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = 0
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            if refs[i].array == refs[j].array or not (offs[i] - offs[j]).is_constant:
                continue
            if circular_distance(addrs[i], addrs[j], period) < cache.line_size:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                edges += 1
    if not edges:
        return []
    groups = {}
    for i in range(len(refs)):
        groups.setdefault(find(i), []).append(i)
    clusters = [
        ThrashCluster(
            refs=tuple(refs[i] for i in m),
            positions=tuple(addrs[i] % period for i in m),
            arrays=tuple(sorted({refs[i].array for i in m})),
        )
        for m in groups.values()
        if len(m) >= 2
    ]
    clusters.sort(key=lambda c: c.positions)
    return clusters


def ref_trip(lp, ranges):
    try:
        return max(1, lp.trip_count())
    except IRError:
        vmin, vmax = ranges[lp.var]
        return max(1, (vmax - vmin) // abs(lp.step) + 1)


def ref_sweep_misses(program, nest, ref, cache, resident, ranges):
    off = ref_offset(program, ref)
    strides = [off.coeff(lp.var) * lp.step for lp in nest.loops]
    varying = [i for i, s in enumerate(strides) if s != 0]
    if not varying:
        return 0.0 if ref.array in resident else 1.0
    sweep_iters = 1
    for i in varying:
        sweep_iters *= ref_trip(nest.loops[i], ranges)
    per_sweep = min(1.0, abs(strides[varying[-1]]) / cache.line_size) * sweep_iters
    lo, hi = affine_interval(off, ranges)
    if (hi - lo) + program.decl(ref.array).element_size <= cache.size:
        return 0.0 if ref.array in resident else per_sweep
    revisits = 1
    for i, s in enumerate(strides):
        if s == 0 and i < varying[-1]:
            revisits *= ref_trip(nest.loops[i], ranges)
    return per_sweep * revisits


def ref_footprint(program, nest):
    ranges = loop_var_ranges(nest)
    total = 0
    for array in nest.arrays_used():
        ivs = [
            affine_interval(ref_offset(program, r), ranges)
            for r in nest.refs
            if r.array == array
        ]
        total += max(hi for _, hi in ivs) - min(lo for lo, _ in ivs)
        total += program.decl(array).element_size
    return total


def ref_predict_program(program, layout, hierarchy):
    """Per-level ``(misses, conflict_misses)`` sums, summed per dot in
    the same order as the predictor."""
    resident = [frozenset() for _ in hierarchy.levels]
    totals = [[0.0, 0.0] for _ in hierarchy.levels]
    for nest in program.nests:
        iters = nest.iterations()
        ranges = loop_var_ranges(nest)
        for k, cache in enumerate(hierarchy.levels):
            thrash = {
                r
                for c in ref_thrash_clusters(program, layout, nest, cache)
                if c.thrashes(cache.associativity)
                for r in c.refs
            }
            dots, arcs = ref_diagram(program, layout, nest, cache.size, cache.line_size)
            exploited = {arc.trailing for arc, _, _, ok in arcs if ok}
            base = conflict = 0.0
            for ref, _, _ in dots:
                if ref in thrash:
                    conflict += float(iters)
                elif ref not in exploited:
                    base += ref_sweep_misses(
                        program, nest, ref, cache, resident[k], ranges
                    )
            totals[k][0] += base + conflict
            totals[k][1] += conflict
        footprint = ref_footprint(program, nest)
        for k, cache in enumerate(hierarchy.levels):
            resident[k] = (
                frozenset(nest.arrays_used()) if footprint <= cache.size else frozenset()
            )
    return tuple(
        LevelPrediction(c.name, m, k) for c, (m, k) in zip(hierarchy.levels, totals)
    )


def ref_job_lines(job, line_size):
    return sum(
        ref_lines_lower_bound(nest, ref_offset(job.program, ref), line_size)
        for nest in job.program.nests
        for ref in nest.refs
    )


def ref_program_offsets(program, layout, max_offsets=1 << 16, max_steps=1 << 12):
    bases = layout.bases()
    pieces = []
    for nest in program.nests:
        seen = set()
        for ref in nest.refs:
            expr = ref_offset(program, ref) + bases[ref.array]
            if expr in seen:
                continue
            seen.add(expr)
            offs = ref_distinct_offsets(nest, expr, max_offsets, max_steps)
            if offs is None:
                return None
            if offs.size:
                pieces.append(offs)
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(pieces))


def ref_classify_program(program, layout, hierarchy):
    capacity = {}
    for cache in hierarchy.levels:
        hit = next(
            (
                (ref, bound)
                for nest in program.nests
                for ref in nest.refs
                if (bound := ref_lines_lower_bound(
                    nest, ref_offset(program, ref), cache.line_size
                )) > cache.num_lines
            ),
            None,
        )
        if hit is not None:
            capacity[cache.name] = (
                f"{hit[0].array} alone spans >= {hit[1]} lines, "
                f"{cache.name} holds {cache.num_lines}"
            )
    offsets = None
    if hierarchy.levels[0].name not in capacity:
        offsets = ref_program_offsets(program, layout)
    out, exact_above, prev_line = [], True, None
    for cache in hierarchy.levels:
        if not exact_above:
            out.append(LevelClassification(cache.name, False, reason="inherited"))
            continue
        if cache.name in capacity:
            cls = LevelClassification(
                cache.name, False, reason="capacity", detail=capacity[cache.name]
            )
        elif prev_line is not None and cache.line_size % prev_line != 0:
            cls = LevelClassification(
                cache.name, False, reason="line-split",
                detail=f"line {cache.line_size} not a multiple of {prev_line}",
            )
        elif offsets is None:
            cls = LevelClassification(
                cache.name, False, reason="budget",
                detail="footprint enumeration exceeded its budget",
            )
        else:
            lines = distinct_lines(offsets, cache.line_size)
            occupancy = max_set_occupancy(lines, cache)
            if occupancy > cache.associativity:
                cls = LevelClassification(
                    cache.name, False, reason="interference",
                    detail=f"a set receives {occupancy} lines, "
                    f"{cache.associativity}-way",
                )
            else:
                cls = LevelClassification(
                    cache.name, True, distinct_lines=int(lines.size)
                )
        out.append(cls)
        exact_above = cls.exact
        prev_line = cache.line_size
    return tuple(out)


# -- checks ----------------------------------------------------------------------


def check_fields(program):
    """Every field of each nest's analysis equals a fresh recomputation."""
    for nest in program.nests:
        info = nest_analysis(program, nest)
        uniq, counts = ref_unique(nest)
        offs = [ref_offset(program, r) for r in uniq]
        env, ranges = canonical_env(nest), loop_var_ranges(nest)
        assert list(info.refs) == uniq
        assert list(info.multiplicity) == counts
        assert list(info.offsets) == offs
        assert info.env == env and info.ranges == ranges
        assert list(info.canonical) == [int(o.evaluate(env)) for o in offs]
        assert list(info.strides) == [
            tuple(o.coeff(lp.var) * lp.step for lp in nest.loops) for o in offs
        ]
        assert info.iterations == nest.iterations()
        assert list(info.trips) == [ref_trip(lp, ranges) for lp in nest.loops]
        for r, o, span in zip(uniq, offs, info.ref_spans):
            lo, hi = affine_interval(o, ranges)
            assert span == (hi - lo) + program.decl(r.array).element_size
        assert info.arrays_used == frozenset(nest.arrays_used())
        for name in program.array_names:
            assert ref_span_bytes(program, nest, name) == (
                info.array_spans.get(name, 0)
            )
        assert info.footprint == nest_footprint_bytes(program, nest)
        assert info.footprint == ref_footprint(program, nest)
        assert uniform_classes(program, nest) == ref_classes(program, nest)
        assert reuse_arcs(program, nest) == ref_arcs(program, nest)
        for arc, (t, l) in zip(info.arcs, info.arc_refs):
            assert (info.refs[t], info.refs[l]) == (arc.trailing, arc.leading)
        assert list(info.const_pairs) == [
            (i, j)
            for i in range(len(uniq))
            for j in range(i + 1, len(uniq))
            if uniq[i].array != uniq[j].array and (offs[i] - offs[j]).is_constant
        ]
        for line in (8, 32, 64):
            assert list(info.lines_bounds(line)) == [
                ref_lines_lower_bound(nest, o, line) for o in offs
            ]


def check_consumers(program, layout, affine: bool = True):
    """Every rewired consumer equals its per-call reference, cold and warm."""
    for name, hier in HIERARCHIES.items():
        expected = ref_predict_program(program, layout, hier)
        for _ in range(2):
            assert predict_program(program, layout, hier).predictions == expected, name
        if affine:
            expected = ref_classify_program(program, layout, hier)
            for _ in range(2):
                assert classify_program(program, layout, hier) == expected, name
        job = SimJob(program, layout, hier)
        line = min(c.line_size for c in hier)
        assert estimate_job_lines(job) == ref_job_lines(job, line)
        for nest in program.nests:
            for cache in hier.levels:
                dots, arcs = ref_diagram(
                    program, layout, nest, cache.size, cache.line_size
                )
                d = CacheDiagram(program, layout, nest, cache.size, cache.line_size)
                assert [(x.ref, x.position, x.multiplicity) for x in d.dots] == dots
                assert [
                    (a.reuse, a.trail_pos, a.lead_pos, a.exploited) for a in d.arcs
                ] == arcs
                assert thrash_clusters(program, layout, nest, cache) == (
                    ref_thrash_clusters(program, layout, nest, cache)
                )


def padded_layout(program):
    """A layout with uneven pads, so bases are not just sequential."""
    layout = DataLayout.sequential(program)
    for k, name in enumerate(layout.order[1:], 1):
        layout = layout.add_pad(name, 8 * (37 * k % 23))
    return layout


class TestMatchesPerCallReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 50_000))
    def test_fuzzed_programs(self, seed):
        ((_, program, layout),) = fuzzed_workloads(seed, 1)
        check_fields(program)
        check_consumers(program, layout)
        check_consumers(program, padded_layout(program))

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_table1_kernels_at_n32(self, name):
        program = KERNELS[name].program(32)
        check_fields(program)
        affine = name in AFFINE_KERNELS
        check_consumers(program, DataLayout.sequential(program), affine)
        check_consumers(program, padded_layout(program), affine)


#: Budgets from generous to starved, so one program's memo sees several.
BUDGETS = [(1 << 16, 1 << 12), (1024, 16), (64, 2), (4, 1 << 12), (1 << 16, 2)]


class TestRelativeEnumeration:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 50_000))
    def test_relative_plus_base_is_absolute(self, seed):
        ((_, program, _),) = fuzzed_workloads(seed, 1)
        layout = padded_layout(program)
        bases = layout.bases()
        for max_offsets, max_steps in BUDGETS:
            for nest in program.nests:
                info = nest_analysis(program, nest)
                for i, (ref, off) in enumerate(zip(info.refs, info.offsets)):
                    rel = info.relative_offsets(i, max_offsets, max_steps)
                    absolute = ref_distinct_offsets(
                        nest, off + bases[ref.array], max_offsets, max_steps
                    )
                    if absolute is None:
                        assert rel is None
                    else:
                        np.testing.assert_array_equal(
                            rel + bases[ref.array], absolute
                        )
            expected = ref_program_offsets(program, layout, max_offsets, max_steps)
            got = distinct_offsets(program, layout, None, max_offsets, max_steps)
            if expected is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, expected)

    def test_enumeration_is_read_only(self):
        ((_, program, _),) = fuzzed_workloads(1, 1)
        info = nest_analysis(program, program.nests[0])
        offs = info.relative_offsets(0, 1 << 16, 1 << 12)
        if offs is not None:
            with pytest.raises(ValueError):
                offs[0] = 0


class TestCacheLifetime:
    def test_built_once_per_nest(self):
        program = KERNELS["expl"].program(32)
        nest = program.nests[0]
        assert nest_analysis(program, nest) is nest_analysis(program, nest)

    def test_shared_by_programs_with_the_same_arrays(self):
        program = KERNELS["expl"].program(32)
        derived = program.with_nests(program.nests[:1]).renamed("derived")
        nest = program.nests[0]
        assert nest_analysis(derived, nest) is nest_analysis(program, nest)

    def test_rebuilt_for_other_declarations(self):
        program = KERNELS["expl"].program(32)
        nest = program.nests[0]
        first = nest_analysis(program, nest)
        other = program.with_arrays(list(program.arrays))  # equal, new tuple
        assert nest_analysis(other, nest) is not first
        assert nest_analysis(other, nest).offsets == first.offsets

    def test_populated_program_pickles_and_keys_like_a_fresh_one(self):
        """The cached analysis never reaches a pickle or a content key, so
        the pool's shared-payload digest and every store key are unchanged."""
        ((_, program, layout),) = fuzzed_workloads(7, 1)
        ((_, fresh, _),) = fuzzed_workloads(7, 1)
        hier = CROSSVAL_HIERARCHIES["roomy"]
        job = SimJob(program, layout, hier)
        job_cost(job)
        classify_job(job)
        predict_job(job)
        assert all(n._analysis is not None for n in program.nests)
        assert all(n._analysis is None for n in fresh.nests)
        assert pickle.dumps(program) == pickle.dumps(fresh)
        assert pickle.dumps(
            (program, hier), protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps((fresh, hier), protocol=pickle.HIGHEST_PROTOCOL)
        assert program_fingerprint(program) == program_fingerprint(fresh)
        assert job.key("symbolic") == job_key(fresh, layout, hier, backend="symbolic")
        assert program == fresh and hash(program) == hash(fresh)
        clone = pickle.loads(pickle.dumps(program))
        assert all(n._analysis is None for n in clone.nests)


class TestThreads:
    def test_concurrent_first_use_gives_serial_answers(self):
        """Threads racing to build the same analyses see finished objects:
        every answer equals the serial one."""
        workloads = fuzzed_workloads(11, 12)
        hier = CROSSVAL_HIERARCHIES["2way"]
        expected = [
            (ref_predict_program(p, lay, hier), ref_classify_program(p, lay, hier))
            for _, p, lay in workloads
        ]
        fresh = fuzzed_workloads(11, 12)
        errors, results = [], {}

        def work(tid):
            try:
                results[tid] = [
                    (
                        predict_program(p, lay, hier).predictions,
                        classify_program(p, lay, hier),
                    )
                    for _, p, lay in fresh
                ]
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(results[t] == expected for t in range(6))
