"""Run a workload's rounds and turn them into the benchmark's metrics.

Every run starts with one warm-up round: set up, run and checked like
the others, but left out of the figures.  Rounds then follow until the
run's seconds have passed, so a run lasts about as long on a slow host
as on a fast one.

Untraced (``trace=False``): every round is set up, timed and checked;
the result carries the end-to-end metrics, medians over the rounds.

Traced (``trace=True``): about half as many rounds, each timed twice on
the same inputs -- once plain, once with every layer wrapped (see
:mod:`perfbench.layers`) -- so ``trace_overhead_pct`` compares like with
like.  The traced passes give the per-layer metrics, all per round:
wall-share self seconds per layer that sum with ``unattributed.seconds``
to ``traced.wall_s``, call and work counts, and the differences between
the counts seen from outside and the program's own metrics registry.
"""

from __future__ import annotations

import glob
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from perfbench import layers
from perfbench.spans import attribute, format_table

LEVELS = ("L1", "L2")

#: Registry counters cross-checked against outside counts:
#: (metric, outside count, registry counter).
CROSS_CHECKS = (
    ("model.predict.uncounted", "model.predict.calls", "model.predictions"),
    ("sim.refs.uncounted", "trace.refs", "sim.refs"),
    ("cache.L1.misses.uncounted", "cache.L1.misses", "cache.L1.misses"),
    ("cache.L2.misses.uncounted", "cache.L2.misses", "cache.L2.misses"),
    ("exec.store_hits.uncounted", "store.hits", "exec.store_hits"),
)


#: Per-round counts the wrappers record directly.
COUNTS = ("trace.chunks", "trace.refs", "exec.jobs", "exec.simulated",
          "exec.steals", "search.evaluations") + tuple(
              f"cache.{lv}.{k}" for lv in LEVELS for k in ("accesses", "misses"))
#: Per-round calls of one layer: metric -> layer.
CALLS = {"store.get.calls": "store.get", "store.put.calls": "store.put",
         "symbolic.classify.calls": "symbolic.classify",
         "model.predict.calls": "model.predict",
         "transforms.grouppad.calls": "transforms.grouppad",
         "search.calls": "search"}
#: Per-round responses by how the service served them: metric -> kind.
SERVED = {"service.served.store": "store",
          "service.served.computed": "computed",
          "service.served.inflight": "inflight",
          "service.rejected": "rejected"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {"traced.wall_s": "s", "unattributed.seconds": "s",
             "trace_overhead_pct": "%"}
    for layer in layers.layer_rows(LEVELS):
        units[f"{layer}.seconds"] = "s"
    for name in (*COUNTS, *CALLS, *SERVED):
        units[name] = "count"
    units.update({
        "cache.mrefs_per_busy_s": "Mrefs/s",
        "exec.job_seconds": "s",
        "exec.pool_busy_ratio": "ratio",
        "store.hit_ratio": "ratio",
        "symbolic.exact_ratio": "ratio",
        "service.queue_wait_ms": "ms",
        "service.warm_unattributed_ms": "ms",
    })
    for name, _, _ in CROSS_CHECKS:
        units[name] = "count"
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Report:
    """Everything one benchmark run produced."""

    rounds: int = 0  # timed rounds, the warm-up not counted
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    summary: dict = field(default_factory=dict)  # name -> (value, unit)
    table: str = ""


def _reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark (Linux); False when the
    kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _vm_hwm_kb(pid: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise OSError(f"no VmHWM for process {pid}")


def _round_peak_kb() -> float:
    """This process's high-water RSS since the last reset plus that of
    each live child -- the round's pool workers."""
    total = _vm_hwm_kb("self")
    for listing in glob.glob("/proc/self/task/*/children"):
        with open(listing) as fh:
            for pid in fh.read().split():
                try:
                    total += _vm_hwm_kb(pid)
                except OSError:
                    pass  # the child exited meanwhile
    return total


def peak_rss_mb(round_peaks_kb: list[float]) -> float:
    """High-water RSS of the process plus its pool workers in a round:
    the median per-round peak (each round forks fresh workers).  Without
    per-round peaks (no ``/proc``), the process's lifetime peak plus its
    largest reaped child stands in."""
    if round_peaks_kb:
        return statistics.median(round_peaks_kb) / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _registry_counters() -> dict:
    from repro.obs.metrics import get_metrics

    return dict(get_metrics().snapshot().get("counters", {}))


class _Traced:
    """Per-layer accumulators over the traced passes."""

    def __init__(self):
        self.rounds = 0
        self.wall = 0.0
        self.plain_wall = 0.0
        self.unattributed = 0.0
        self.rows: dict[str, float] = defaultdict(float)
        self.calls: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.registry: dict[str, float] = defaultdict(float)
        self.served: dict[str, float] = defaultdict(float)
        self.warm_ms: list[float] = []
        self.queue_wait_ms: list[float] = []

    def add(self, merged, t0, t1, before, after, outcome, plain_seconds):
        self.rounds += 1
        self.wall += t1 - t0
        self.plain_wall += plain_seconds
        rows, unattributed = attribute(merged["segments"], t0, t1)
        self.unattributed += unattributed
        for table, src in ((self.rows, rows), (self.calls, merged["calls"]),
                           (self.busy, merged["busy"]),
                           (self.counts, merged["counts"])):
            for k, v in src.items():
                table[k] += v
        for k, v in after.items():
            self.registry[k] += v - before.get(k, 0)
        latency = outcome.extra.get("latency_ms")
        if latency is not None:
            for served, samples in latency.items():
                self.served[served] += len(samples)
            self.served["rejected"] += sum(
                1 for status, _, _ in outcome.outputs if status != 200)
            self.warm_ms += latency["store"]
            self.queue_wait_ms += outcome.extra["queue_wait_ms"]

    def metrics(self) -> dict:
        n = self.rounds
        c, calls, busy = self.counts, self.calls, self.busy
        out = {"traced.wall_s": self.wall / n,
               "unattributed.seconds": self.unattributed / n,
               "trace_overhead_pct": 100 * (self.wall / self.plain_wall - 1)}
        for layer in layers.layer_rows(LEVELS):
            out[f"{layer}.seconds"] = self.rows.get(layer, 0.0) / n
        for name in COUNTS:
            out[name] = c.get(name, 0) / n
        for name, layer in CALLS.items():
            out[name] = calls.get(layer, 0) / n
        for name, kind in SERVED.items():
            out[name] = self.served.get(kind, 0) / n
        cache_busy = busy.get("cache.hierarchy", 0.0)
        out["cache.mrefs_per_busy_s"] = (
            c.get("cache.L1.accesses", 0) / cache_busy / 1e6 if cache_busy else 0.0)
        out["exec.job_seconds"] = c.get("exec.job_seconds", 0.0) / n
        capacity = c.get("exec.dispatch_capacity_s", 0.0)
        out["exec.pool_busy_ratio"] = (
            c.get("exec.pool_job_seconds", 0.0) / capacity if capacity else 0.0)
        gets = calls.get("store.get", 0)
        out["store.hit_ratio"] = c.get("store.hits", 0) / gets if gets else 0.0
        classified = calls.get("symbolic.classify", 0)
        out["symbolic.exact_ratio"] = (
            c.get("symbolic.exact", 0) / classified if classified else 0.0)
        out["service.queue_wait_ms"] = (
            statistics.median(self.queue_wait_ms) if self.queue_wait_ms else 0.0)
        front = sum(busy.get(k, 0.0) for k in (
            "service.parse", "service.key", "service.tuning_store.get"))
        requests = sum(self.served.values())
        out["service.warm_unattributed_ms"] = (
            statistics.fmean(self.warm_ms) - 1000 * front / requests
            if self.warm_ms else 0.0)
        for name, outside, counter in CROSS_CHECKS:
            seen = out[outside] if outside in out else c.get(outside, 0) / n
            out[name] = seen - self.registry.get(counter, 0) / n
        return out

    def table(self, title: str) -> str:
        n = self.rounds
        rows = {k: v / n for k, v in self.rows.items()}
        calls = {k: v / n for k, v in self.calls.items()}
        return format_table(title, self.wall / n, rows, calls,
                            self.unattributed / n)


#: Fewest timed rounds a run makes, however long they take.
MIN_ROUNDS = 3


def run(workload, seed: int, seconds: float, trace: bool, workdir: str,
        import_seconds: float = 0.0, min_rounds: int = MIN_ROUNDS) -> Report:
    """Run a warm-up round, then rounds of ``workload`` until ``seconds``
    have passed and at least ``min_rounds`` are done; see the module
    docstring."""
    report = Report()
    setups: list[float] = []
    round_peaks_kb: list[float] = []
    plain: list = []
    traced = _Traced()
    spool = os.path.join(workdir, "spool")
    os.makedirs(spool, exist_ok=True)

    def one_pass(rnd: int, inputs, label: str, wrapped: bool):
        store_dir = os.path.join(workdir, f"store-{rnd}-{label}")
        peaks = label == "plain" and _reset_peak_rss()
        t = time.perf_counter()
        if inputs is None:
            inputs = workload.inputs(seed, rnd)
        if wrapped:
            layers.install(spool)
        ctx = workload.start(inputs, store_dir)
        setups.append(time.perf_counter() - t)
        try:
            if wrapped:
                layers.RECORDER.reset()
                before = _registry_counters()
            t0 = time.perf_counter()
            outcome = workload.timed(ctx, inputs)
            t1 = time.perf_counter()
            if peaks:
                round_peaks_kb.append(_round_peak_kb())
            if wrapped:
                merged = layers.collect()
                after = _registry_counters()
        finally:
            if wrapped:
                layers.uninstall()
            workload.stop(ctx)
            shutil.rmtree(store_dir, ignore_errors=True)
        report.notes += workload.check(inputs, outcome)
        report.attempted += outcome.attempted
        report.failed += outcome.failed
        if wrapped:
            traced.add(merged, t0, t1, before, after, outcome, plain[-1].seconds)
        return inputs, outcome

    one_pass(0, None, "warmup", False)
    start = time.perf_counter()
    rnd = 0
    while rnd < min_rounds or time.perf_counter() - start < seconds:
        rnd += 1
        inputs, outcome = one_pass(rnd, None, "plain", False)
        plain.append(outcome)
        if trace:
            one_pass(rnd, inputs, "traced", True)

    if trace:
        values = traced.metrics()
        report.metrics = {name: (values[name], unit)
                          for name, unit in per_layer_units().items()}
        report.table = traced.table(f"{workload.name} (traced)")
    else:
        report.metrics = {
            "setup_s": (import_seconds + statistics.median(setups), "s"),
            "wall_s": (statistics.median(o.seconds for o in plain), "s"),
            "peak_rss_mb": (peak_rss_mb(round_peaks_kb), "MB"),
        }
    report.rounds = len(plain)
    report.summary = workload.summary(plain)
    return report
