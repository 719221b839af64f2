"""Benchmark: closed-form prediction throughput, and its edge over
simulation.

The predictor's whole value proposition is the cost asymmetry -- scoring
a config analytically must be orders of magnitude cheaper than
simulating it, or predict-then-verify buys nothing.  The rows here
record predicted configs/sec (via ``extra_info``, so the trend gate
tracks it) and pin the asymmetry itself.
"""

import itertools
import time

from repro.cache.config import ultrasparc_i
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SimJob
from repro.experiments.ext_search import build_space
from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES
from repro.fuzz import fuzzed_workloads

N_CONFIGS = 24

#: Programs per round of the fuzzed benchmark: the ``tiers`` shape of
#: ``perfbench`` (100 small programs, each under three hierarchies).
FUZZ_PROGRAMS = 100


def _jobs(name: str = "jacobi"):
    hier = ultrasparc_i()
    _, space, _ = build_space(name, quick=True, hierarchy=hier)
    configs = []
    for config in space.configs():
        configs.append(config)
        if len(configs) >= N_CONFIGS:
            break
    return [space.job(c) for c in configs]


def test_bench_predict_batch(benchmark):
    jobs = _jobs()
    executor = SweepExecutor(workers=1)
    results = benchmark.pedantic(
        lambda: executor.predict(jobs), rounds=3, iterations=1, warmup_rounds=1
    )
    assert len(results) == len(jobs)
    stats = benchmark.stats
    stats = getattr(stats, "stats", stats)
    benchmark.extra_info["predict_configs_per_sec"] = round(
        len(jobs) / stats.min, 1
    )


def test_bench_predict_fuzzed(benchmark):
    """Prediction throughput on small fuzzed jobs, one program under every
    cross-validation hierarchy.  Each round takes a fresh window of the
    fuzz stream, so the per-nest analyses are built inside the timed
    region and shared across the three hierarchies, as ``tiers`` does."""
    windows = itertools.count()
    executor = SweepExecutor(workers=1)

    def fresh_jobs():
        seed = next(windows) * FUZZ_PROGRAMS
        jobs = [
            SimJob(program, layout, hier)
            for _, program, layout in fuzzed_workloads(seed, FUZZ_PROGRAMS)
            for hier in CROSSVAL_HIERARCHIES.values()
        ]
        return (jobs,), {}

    results = benchmark.pedantic(
        executor.predict, setup=fresh_jobs, rounds=5, iterations=1,
        warmup_rounds=1,
    )
    assert len(results) == FUZZ_PROGRAMS * len(CROSSVAL_HIERARCHIES)
    stats = getattr(benchmark.stats, "stats", benchmark.stats)
    benchmark.extra_info["predict_jobs_per_sec"] = round(
        len(results) / stats.min, 1
    )


def test_predict_is_much_cheaper_than_simulate():
    jobs = _jobs("expl")
    executor = SweepExecutor(workers=1)
    t0 = time.perf_counter()
    executor.predict(jobs)
    predict_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    executor.run(jobs[:4])
    simulate_s = (time.perf_counter() - t0) / 4
    per_predict = predict_s / len(jobs)
    # At the shrunken quick sizes the measured edge is ~10x; it widens
    # with the iteration count (prediction cost is size-independent), so
    # a loose 5x floor pins the asymmetry without inviting CI noise.
    assert per_predict * 5 < simulate_s, (per_predict, simulate_s)
