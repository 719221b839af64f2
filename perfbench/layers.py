"""Wrap each layer's public entry points with spans, from outside ``src/``.

Nothing in the program changes: :func:`install` replaces attributes on
classes and modules (where their callers resolve them at call time) with
recording wrappers, and :func:`uninstall` puts the originals back.  A
free function imported with ``from x import f`` is wrapped in the module
that calls it, e.g. ``dispatch_jobs`` and ``pack_payloads`` inside
``repro.exec.executor``.

Pool workers run ``repro.exec.executor._timed_run`` for each job.  It is
replaced by :func:`timed_run`, a module-level function of this file, so
it pickles by reference; in a worker it makes sure the wrappers are
installed, records the job's spans and spills them to the worker's spool
file, where :meth:`Recorder.collect` finds them.  Every pool job the
parent dispatched must come back with its worker-side spans, or
:func:`collect` raises.
"""

from __future__ import annotations

import functools
import os

from perfbench.spans import Recorder

__all__ = ["RECORDER", "install", "uninstall", "collect", "timed_run",
           "layer_rows"]

RECORDER = Recorder()
SPOOL_ENV = "PERFBENCH_SPOOL"

_installed: list[tuple[object, str, object]] = []
_parent_pid: int | None = None
_original_timed_run = None


def _wrap(layer: str, fn, wait: bool = False, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        RECORDER.begin(layer, wait)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = RECORDER.end()
        if after is not None:
            after(out, args, dur)
        return out
    return wrapper


def _after_dispatch(out, args, dur):
    RECORDER.add("exec.steals", out.steals)
    RECORDER.add("exec.pool_jobs", len(out.outs))
    RECORDER.add("exec.dispatch_capacity_s", dur * args[0].max_workers)


def _after_run(out, args, dur):
    executor = args[0]
    RECORDER.add("exec.jobs", executor.stats.jobs)
    RECORDER.add("exec.simulated", executor.stats.simulated_jobs)


def _after_store_get(out, args, dur):
    if out is not None:
        RECORDER.add("store.hits", 1)


def _after_classify(out, args, dur):
    if all(level.exact for level in out):
        RECORDER.add("symbolic.exact", 1)


def _after_search(out, args, dur):
    RECORDER.add("search.evaluations", out.evaluations)


def _level_feed(fn):
    """A cache level's ``feed``: one span per level, named after the
    level the hierarchy built it for (see ``_make_level`` below)."""
    @functools.wraps(fn)
    def feed(self, addresses):
        name = getattr(self, "_perfbench_level", "unnamed")
        RECORDER.begin(f"cache.{name}")
        try:
            miss = fn(self, addresses)
        finally:
            RECORDER.end()
        RECORDER.add(f"cache.{name}.accesses", int(miss.size))
        RECORDER.add(f"cache.{name}.misses", int(miss.sum()))
        return miss
    return feed


def _make_level(fn):
    @functools.wraps(fn)
    def make(cfg):
        level = fn(cfg)
        level._perfbench_level = cfg.name
        return level
    return make


def _chunks(fn):
    """``SimJob.chunks``: each pull from the trace generator is a span."""
    @functools.wraps(fn)
    def chunks(self):
        source = iter(fn(self))
        while True:
            RECORDER.begin("trace")
            try:
                chunk = next(source, None)
            finally:
                RECORDER.end()
            if chunk is None:
                return
            RECORDER.add("trace.chunks", 1)
            RECORDER.add("trace.refs", int(chunk.size))
            yield chunk
    return chunks


def _targets():
    """``(owner, attribute, wrapper_factory)`` for every wrapped entry."""
    from importlib import import_module

    (streaming, driver, executor, fig10, model, client, pipeline, planner,
     server, symbolic, grouppad_mod) = map(import_module, (
        "repro.cache.streaming", "repro.driver", "repro.exec.executor",
        "repro.experiments.fig10_grouppad", "repro.model",
        "repro.service.client", "repro.service.pipeline",
        "repro.service.planner", "repro.service.server", "repro.symbolic",
        # The package re-exports a function under the submodule's name.
        "repro.transforms.grouppad"))
    from repro.exec.jobs import SimJob
    from repro.exec.store import ResultStore
    from repro.search.tuner import Autotuner

    def span(layer, wait=False, after=None):
        return lambda fn: _wrap(layer, fn, wait, after)

    grouppad = span("transforms.grouppad")
    return [
        # repro.exec (executor, scheduler, cost model)
        (executor.SweepExecutor, "run", span("exec.run", after=_after_run)),
        (executor.SweepExecutor, "predict", span("exec.predict")),
        (executor, "job_cost", span("exec.cost")),
        (executor, "auto_chunk_refs", span("exec.cost")),
        (executor, "pack_payloads", span("exec.pack")),
        (executor, "dispatch_jobs",
         span("exec.dispatch", wait=True, after=_after_dispatch)),
        (SimJob, "key", span("exec.key")),
        # repro.exec.store
        (ResultStore, "get", span("store.get", after=_after_store_get)),
        (ResultStore, "put", span("store.put")),
        (ResultStore, "scan", span("store.scan")),
        # repro.trace and repro.cache
        (SimJob, "chunks", _chunks),
        (streaming, "_make_level", _make_level),
        (streaming.StreamingHierarchy, "feed", span("cache.hierarchy")),
        (streaming.StreamingDirectCache, "feed", _level_feed),
        (streaming.StreamingAssocCache, "feed", _level_feed),
        # repro.symbolic and repro.model (resolved lazily by their callers)
        (symbolic, "classify_job",
         span("symbolic.classify", after=_after_classify)),
        (symbolic, "analyze_job", span("symbolic.analyze")),
        (model, "predict_job", span("model.predict")),
        # repro.transforms / repro.driver
        (grouppad_mod, "grouppad", grouppad),
        (driver, "grouppad", grouppad),
        (fig10, "grouppad", grouppad),
        (pipeline, "optimize", span("driver.optimize")),
        # repro.search
        (Autotuner, "search", span("search", after=_after_search)),
        # repro.service
        (planner, "parse_request", span("service.parse")),
        (planner, "request_key", span("service.key")),
        (planner.TuningStore, "get", span("service.tuning_store.get")),
        (planner.TuningStore, "put", span("service.tuning_store.put")),
        (server, "run_tuning", span("service.run_tuning")),
        # The client blocks on its socket: time no server layer claims.
        (client.TuningClient, "tune", span("service.http", wait=True)),
    ]


def install(spool: str | None = None) -> None:
    """Wrap every layer (idempotent).  ``spool`` is the directory pool
    workers spill their spans to."""
    global _parent_pid, _original_timed_run
    if spool is not None:
        RECORDER.spool = spool
        os.environ[SPOOL_ENV] = spool
        _parent_pid = os.getpid()
    if _installed:
        return
    import repro.exec.executor as executor

    for owner, attr, factory in _targets():
        original = getattr(owner, attr)
        _installed.append((owner, attr, original))
        setattr(owner, attr, factory(original))
    _original_timed_run = executor._timed_run
    _installed.append((executor, "_timed_run", _original_timed_run))
    executor._timed_run = timed_run


def uninstall() -> None:
    """Restore every original attribute."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    RECORDER.reset()


def timed_run(job):
    """Replacement for the executor's per-job runner (parent or worker)."""
    worker = os.getpid() != _parent_pid
    if worker:
        RECORDER.adopt_process()
        if RECORDER.spool is None:
            RECORDER.spool = os.environ[SPOOL_ENV]
        if not _installed:
            install()
    RECORDER.begin("exec.simjob")
    try:
        out = _original_timed_run(job)
    finally:
        dur = RECORDER.end()
    RECORDER.add("exec.job_seconds", dur)
    if worker:
        RECORDER.add("exec.pool_job_seconds", dur)
        RECORDER.add("exec.pool_jobs_spilled", 1)
        RECORDER.spill()
    return out


def collect() -> dict:
    """Everything recorded since the last collection, workers included."""
    merged = RECORDER.collect()
    counts = merged["counts"]
    sent = counts.get("exec.pool_jobs", 0)
    back = counts.get("exec.pool_jobs_spilled", 0)
    if sent != back:
        raise RuntimeError(
            f"worker spans lost: {sent:g} pool jobs dispatched, "
            f"{back:g} spilled their spans"
        )
    return merged


#: Table rows, in report order; :func:`layer_rows` adds one
#: ``cache.<level>`` row per cache level after ``cache.hierarchy``.
LAYER_ROWS = (
    "trace", "cache.hierarchy", "exec.run", "exec.predict", "exec.key",
    "exec.cost", "exec.pack", "exec.dispatch", "exec.simjob", "store.get",
    "store.put", "store.scan", "symbolic.classify", "symbolic.analyze",
    "model.predict", "transforms.grouppad", "driver.optimize", "search",
    "service.parse", "service.key", "service.tuning_store.get",
    "service.tuning_store.put", "service.run_tuning", "service.http",
)


def layer_rows(levels) -> tuple[str, ...]:
    return LAYER_ROWS[:2] + tuple(f"cache.{lv}" for lv in levels) + LAYER_ROWS[2:]
