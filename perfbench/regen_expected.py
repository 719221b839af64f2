"""Regenerate the committed expected outputs in ``perfbench/expected/``.

    python3 perfbench/regen_expected.py [sweep] [tiers] [tune]

Every value comes from ``backend="sim"`` -- the simulator, not the
tier under test:

* ``sweep.json`` -- per-level counts for every point of the Fig-11 axis
  (the benchmark runs its midpoint);
* ``tiers.json`` -- per-level counts for every job the default and the
  held-out seed generate in their warm-up and first eight rounds;
* ``tune.json`` -- ``recommendation`` and ``evaluation`` for every
  request of the tuning universe.

Run it only when the program's answers are meant to change; the
benchmark fails any operation whose output differs from these files.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

from perfbench import workloads  # noqa: E402
from perfbench.run import DEFAULT_SEED  # noqa: E402

HELD_OUT_SEED = 1009
TIERS_ROUNDS = 9  # the warm-up round and the first eight timed rounds


def _write(name: str, table: dict) -> None:
    path = os.path.join(workloads.EXPECTED_DIR, f"{name}.json")
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(table.items()))
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")  # one entry per line
    print(f"wrote {len(table)} entries to {path}")


def regen_sweep() -> None:
    from repro.cache.config import ultrasparc_i
    from repro.exec.executor import SweepExecutor
    from repro.experiments.fig11_sweep import build_jobs

    jobs = build_jobs(programs=workloads.Sweep.programs, hierarchy=ultrasparc_i())
    with SweepExecutor(workers=workloads.WORKERS, backend="sim") as ex:
        results = ex.run(jobs)
    _write("sweep", {"/".join(map(str, j.tag)): workloads._levels(r)
                     for j, r in zip(jobs, results)})


def regen_tiers() -> None:
    from repro.exec.executor import SweepExecutor

    wl = workloads.Tiers(expected={})
    table = {}
    with SweepExecutor(workers=1, backend="sim") as ex:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for rnd in range(TIERS_ROUNDS):
                jobs = wl.inputs(seed, rnd)
                for job, result in zip(jobs, ex.run(jobs)):
                    table["/".join(map(str, job.tag))] = workloads._levels(result)
    _write("tiers", table)


def regen_tune() -> None:
    from repro.exec.executor import SweepExecutor
    from repro.exec.store import ResultStore
    from repro.service.pipeline import run_tuning
    from repro.service.protocol import parse_request

    table = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        with SweepExecutor(workers=1, store=ResultStore(tmp), backend="sim") as ex:
            for spec in workloads.tune_universe():
                out = run_tuning(parse_request(spec), ex)
                table[workloads.spec_id(spec)] = {
                    "recommendation": out["recommendation"],
                    "evaluation": out["evaluation"],
                }
    _write("tune", table)


if __name__ == "__main__":
    chosen = sys.argv[1:] or ["sweep", "tiers", "tune"]
    for name in chosen:
        {"sweep": regen_sweep, "tiers": regen_tiers, "tune": regen_tune}[name]()
