"""The three workloads: inputs from the seed, rounds, and output checks.

Every workload runs in *rounds* of equal work, so the median round is
a steady figure.  A round builds its inputs from ``(seed, round)``
alone, sets up (layouts, executor and pool, or a fresh server) under
the set-up clock, runs the timed phase cold over an empty store, and
tears down.  Outputs are checked after the timed phase:

* ``sweep`` -- every job's per-level (accesses, misses) against the
  committed values for the whole Fig-11 axis (``expected/sweep.json``);
* ``tiers`` -- every result of ``run(backend="auto")`` against a
  ``backend="sim"`` run of the same job, and against the committed
  values for the default and held-out seeds (``expected/tiers.json``);
  every prediction must cover the job's levels and references;
* ``tune`` -- every response must be a 200 whose ``recommendation`` and
  ``evaluation`` equal the committed ones for its request
  (``expected/tune.json``) and the first response for the same request.

A mismatch counts as one failed operation.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field


EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

#: Load shape for a 2-CPU host: one process, two client threads,
#: service concurrency two, and two pool workers for ``sweep`` only --
#: its few large jobs keep both CPUs busy with little traffic between
#: processes.  ``tiers`` runs in-process: the pool loses on tiny jobs,
#: and one busy process leaves the second CPU to the rest of the host.
WORKERS = 2
CLIENTS = 2


def _levels(result) -> list:
    return [result.total_refs] + [
        x for lv in result.levels for x in (lv.accesses, lv.misses)
    ]


def _warm_pool(executor) -> None:
    """Fork the executor's pool workers now, so pool start is set-up."""
    pool = executor.pool().ensure()
    for future in [pool.submit(os.getpid) for _ in range(executor.workers)]:
        future.result()


@dataclass
class Outcome:
    """What one timed pass produced."""

    seconds: float
    outputs: object
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)


class Workload:
    """Interface every workload implements (see module docstring)."""

    name = ""

    def __init__(self, expected: dict | None = None):
        self.expected = expected if expected is not None else self.load_expected()

    def load_expected(self) -> dict:
        with open(os.path.join(EXPECTED_DIR, f"{self.name}.json")) as fh:
            return json.load(fh)

    def inputs(self, seed: int, rnd: int):
        raise NotImplementedError

    def start(self, inputs, workdir: str):
        raise NotImplementedError

    def timed(self, ctx, inputs) -> Outcome:
        raise NotImplementedError

    def stop(self, ctx) -> None:
        raise NotImplementedError

    def check(self, inputs, outcome: Outcome) -> list[str]:
        """Fill ``outcome.attempted``/``failed``; returns failure notes."""
        raise NotImplementedError

    def summary(self, outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures for the summary line."""
        return {}


# -- sweep ---------------------------------------------------------------------


class Sweep(Workload):
    """Fig-11 sweep point (EXPL and SHAL, both GROUPPAD variants) on the
    UltraSparc-I hierarchy, ``backend="sim"``, two pool workers.

    Every round simulates the axis midpoint (n = 380), so every round
    and every seed does the same work; the seed orders the jobs.  Sizes
    drawn from the axis would not do: one job's time varies severalfold
    along it, and even size sets balanced to within 3% in ref count
    differed by 15-25% in time, so the figures would follow the draw.
    """

    name = "sweep"
    programs = ("expl", "shal")

    def inputs(self, seed: int, rnd: int):
        from repro.cache.config import ultrasparc_i
        from repro.experiments.fig11_sweep import build_jobs, sweep_sizes

        axis = sweep_sizes()
        jobs = build_jobs(programs=self.programs, sizes=[axis[len(axis) // 2]],
                          hierarchy=ultrasparc_i())
        random.Random(f"sweep:{seed}:{rnd}").shuffle(jobs)
        return jobs

    def start(self, jobs, workdir: str):
        from repro.exec.executor import SweepExecutor
        from repro.exec.store import ResultStore

        executor = SweepExecutor(workers=WORKERS, store=ResultStore(workdir),
                                 backend="sim")
        _warm_pool(executor)
        return executor

    def timed(self, executor, jobs) -> Outcome:
        t0 = time.perf_counter()
        results = executor.run(jobs)
        return Outcome(time.perf_counter() - t0, results,
                       extra={"refs": sum(r.total_refs for r in results)})

    def stop(self, executor) -> None:
        executor.close()

    def check(self, jobs, outcome: Outcome) -> list[str]:
        notes = []
        for job, result in zip(jobs, outcome.outputs):
            outcome.attempted += 1
            key = "/".join(map(str, job.tag))
            want = self.expected.get(key)
            if result is None or _levels(result) != want:
                outcome.failed += 1
                notes.append(f"sweep {key}: got {result and _levels(result)}, "
                             f"expected {want}")
        return notes

    def summary(self, outcomes):
        refs = sum(o.extra["refs"] for o in outcomes)
        secs = sum(o.seconds for o in outcomes)
        return {"sim_mrefs_per_s": (refs / secs / 1e6, "Mrefs/s")}


# -- tiers ---------------------------------------------------------------------


class Tiers(Workload):
    """Fuzzed affine programs x the symbolic cross-validation hierarchies
    (dm, 2way, roomy) through ``run(backend="auto")``, then
    ``SweepExecutor.predict`` on the same jobs, in-process.

    Round ``r`` takes ``count`` programs from the fuzz stream window
    starting at ``seed * SEED_STRIDE + r * count`` -- disjoint windows,
    so seeds and rounds never share a program.  Programs differ in cost,
    so a round's time varies; the median over a run's rounds does not
    follow the seed by more than a few percent.
    """

    name = "tiers"
    count = 100
    SEED_STRIDE = 19200  # room for 192 rounds of 100 programs per seed

    def inputs(self, seed: int, rnd: int):
        from repro.exec.jobs import SimJob
        from repro.experiments.ext_symbolic import CROSSVAL_HIERARCHIES
        from repro.fuzz.generator import fuzzed_workloads

        base = seed * self.SEED_STRIDE + rnd * self.count
        return [
            SimJob(program, layout, hier, tag=(case_seed, hname))
            for case_seed, program, layout in fuzzed_workloads(base, self.count)
            for hname, hier in CROSSVAL_HIERARCHIES.items()
        ]

    def start(self, jobs, workdir: str):
        from repro.exec.executor import SweepExecutor
        from repro.exec.store import ResultStore

        return SweepExecutor(workers=1, store=ResultStore(workdir),
                             backend="auto")

    def timed(self, executor, jobs) -> Outcome:
        t0 = time.perf_counter()
        results = executor.run(jobs)
        t1 = time.perf_counter()
        predicted = executor.predict(jobs)
        t2 = time.perf_counter()
        return Outcome(t2 - t0, (results, predicted), extra={
            "auto_s": t1 - t0, "predict_s": t2 - t1, "jobs": len(jobs),
            "exact": executor.stats.symbolic_jobs,
        })

    def stop(self, executor) -> None:
        executor.close()

    def check(self, jobs, outcome: Outcome) -> list[str]:
        from repro.exec.executor import SweepExecutor

        results, predicted = outcome.outputs
        with SweepExecutor(workers=1, backend="sim") as oracle:
            reference = oracle.run(jobs)
        notes = []
        errors = []
        for job, got, ref, pred in zip(jobs, results, reference, predicted):
            key = "/".join(map(str, job.tag))
            outcome.attempted += 2
            want = _levels(ref)
            committed = self.expected.get(key)
            if got is None or _levels(got) != want or (
                committed is not None and committed != want
            ):
                outcome.failed += 1
                notes.append(f"tiers {key}: auto {got and _levels(got)}, "
                             f"sim {want}, committed {committed}")
            if pred is None or pred.total_refs != ref.total_refs or [
                lv.name for lv in pred.levels
            ] != [lv.name for lv in ref.levels]:
                outcome.failed += 1
                notes.append(f"tiers {key}: prediction {pred!r} does not "
                             f"cover {ref.total_refs} refs")
                continue
            sim_l1 = ref.levels[0].misses
            if sim_l1:
                errors.append(abs(pred.levels[0].misses - sim_l1) / sim_l1)
        outcome.extra["l1_errors"] = errors
        return notes

    def summary(self, outcomes):
        jobs = sum(o.extra["jobs"] for o in outcomes)
        errors = [e for o in outcomes for e in o.extra["l1_errors"]]
        return {
            "auto_jobs_per_s": (jobs / sum(o.extra["auto_s"] for o in outcomes),
                                "jobs/s"),
            "predict_jobs_per_s": (
                jobs / sum(o.extra["predict_s"] for o in outcomes), "jobs/s"),
            "exact_frac": (sum(o.extra["exact"] for o in outcomes) / jobs,
                           "ratio"),
            "model_l1_err_pct": (100 * statistics.fmean(errors), "%"),
        }


# -- tune ----------------------------------------------------------------------

#: The request universe: Table-1 kernels at small n, each with every
#: search strategy.  Each cold request stays within about 2 s: expl
#: runs at max_lines=1 and never with ``search=predict`` (7 s cold, half
#: a round on its own); shal is absent because its grouppad alone takes
#: seconds.
TUNE_KERNELS = {
    "jacobi": (32, 64), "dot": (32, 64), "adi32": (32,),
    "linpackd": (32, 64), "erle64": (32,), "irr500k": (32, 64),
    "expl": (32,),
}
TUNE_SEARCHES = ("none", "coordinate", "predict")
TUNE_BUDGET = 8


def tune_universe() -> list[dict]:
    return [
        {"kernel": k, "n": n, "search": s, "budget": TUNE_BUDGET,
         "max_lines": 1 if k == "expl" else 2}
        for k, ns in TUNE_KERNELS.items() for n in ns for s in TUNE_SEARCHES
        if (k, s) != ("expl", "predict")
    ]


def spec_id(spec: dict) -> str:
    return "/".join(f"{k}={spec[k]}" for k in sorted(spec))


class _Server:
    """A live :class:`TuningService` on an ephemeral port, its event loop
    on a private thread."""

    def __init__(self, store_dir: str):
        from repro.service.server import ServiceConfig, TuningService

        self.loop = asyncio.new_event_loop()
        # Daemon threads here and for the clients: a hung server must not
        # keep the benchmark process alive past its error.
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-loop", daemon=True)
        self.thread.start()
        self.service = TuningService(ServiceConfig(
            store_dir=store_dir, port=0, concurrency=2, backend="auto",
        ))
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.start(), self.loop).result(timeout=60)
        except BaseException:
            self._stop_loop()
            raise

    def close(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self.loop).result(timeout=120)
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        if self.thread.is_alive():
            raise RuntimeError("service event loop did not stop")
        self.loop.close()


class Tune(Workload):
    """The tuning service: a fresh in-process server per round (empty
    store, backend auto, concurrency 2), driven by two closed-loop
    clients sharing one seeded request stream.

    The stream holds every request of the universe once (its cold
    serve) plus seeded repeats of earlier requests, so the cold work is
    the same for every seed and only order and repeats vary.
    """

    name = "tune"
    repeats = 190  # ~85% of a round's requests repeat an earlier one

    def __init__(self, expected=None, universe=None):
        super().__init__(expected)
        self.universe = universe if universe is not None else tune_universe()

    def inputs(self, seed: int, rnd: int):
        rng = random.Random(f"tune:{seed}:{rnd}")
        unseen = list(self.universe)
        rng.shuffle(unseen)
        total = len(unseen) + self.repeats
        stream, seen = [], []
        for slot in range(total):
            if unseen and (not seen or rng.random() < len(unseen) / (total - slot)):
                seen.append(unseen.pop())
                stream.append(seen[-1])
            else:
                stream.append(rng.choice(seen))
        return stream

    def start(self, stream, workdir: str):
        return _Server(workdir)

    def timed(self, server, stream) -> Outcome:
        from repro.service.client import ServiceClientError, TuningClient

        lock = threading.Lock()
        cursor = iter(enumerate(stream))
        replies: list = [None] * len(stream)

        def client_loop():
            client = TuningClient(port=server.service.port, timeout=120.0)
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                index, spec = item
                t0 = time.perf_counter()
                try:
                    status, payload = client.tune(spec)
                except ServiceClientError as exc:
                    status, payload = 0, {"error": str(exc)}
                replies[index] = (status, payload, time.perf_counter() - t0)

        threads = [threading.Thread(target=client_loop, daemon=True,
                                    name=f"perfbench-client{c}")
                   for c in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
        elapsed = time.perf_counter() - t0
        if any(t.is_alive() for t in threads):
            raise RuntimeError("tune clients did not finish")
        waits = [
            1000 * (state.started_at - state.queued_at)
            for state in server.service.jobs.values()
            if state.started_at is not None
        ]
        return Outcome(elapsed, replies, extra={"queue_wait_ms": waits})

    def stop(self, server) -> None:
        server.close()

    def check(self, stream, outcome: Outcome) -> list[str]:
        notes = []
        first: dict[str, dict] = {}
        latency: dict[str, list] = {"store": [], "computed": [], "inflight": []}
        for spec, (status, payload, seconds) in zip(stream, outcome.outputs):
            outcome.attempted += 1
            sid = spec_id(spec)
            if status != 200:
                outcome.failed += 1
                notes.append(f"tune {sid}: HTTP {status} {payload.get('error')}")
                continue
            served = payload.get("served")
            if served in latency:
                latency[served].append(1000 * seconds)
            answer = {"recommendation": payload.get("recommendation"),
                      "evaluation": payload.get("evaluation")}
            prior = first.setdefault(sid, answer)
            if answer != self.expected.get(sid) or answer != prior:
                outcome.failed += 1
                notes.append(f"tune {sid} ({served}): answer differs from the "
                             f"committed or first response")
        outcome.extra["latency_ms"] = latency
        return notes

    def summary(self, outcomes):
        lat = {k: [x for o in outcomes for x in o.extra["latency_ms"][k]]
               for k in ("store", "computed")}
        requests = sum(o.attempted for o in outcomes)
        out = {
            "tune_rps": (requests / sum(o.seconds for o in outcomes), "req/s"),
            "warm_p50_ms": (statistics.median(lat["store"]), "ms"),
            "cold_p50_ms": (statistics.median(lat["computed"]), "ms"),
        }
        pct, value = tail_percentile(lat["store"])
        out[f"warm_p{pct}_ms"] = (value, "ms")
        out["warm_samples"] = (len(lat["store"]), "count")
        return out


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(ordered, n=100)[pct - 1]
    return 50, statistics.median(ordered)


WORKLOADS = {cls.name: cls for cls in (Sweep, Tiers, Tune)}
