"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep|tiers|tune --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
next to this directory.  Prints notes and tables first and, as the last
line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1


def _put_program_on_path() -> None:
    """Put the checkout's ``src/`` first on the path; exit 1 if this
    checkout has no program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program under {SRC}")
    sys.path[:0] = [SRC, ROOT]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "tiers", "tune"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _put_program_on_path()
    from perfbench import harness, workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    import_seconds = time.perf_counter() - _T_START
    try:
        report = harness.run(workload, args.seed, args.seconds,
                             bool(args.trace), workdir, import_seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still holds its own subdirectory

    for note in report.notes[:20]:
        print(f"[perfbench] FAILED {note}", file=sys.stderr)
    if report.table:
        print(report.table)
    print(f"[perfbench] {args.workload} seed={args.seed} rounds={report.rounds} "
          + " ".join(f"{k}={v:.6g}{u if u in ('%', 'ms', 's') else ' ' + u}"
                     for k, (v, u) in report.summary.items()))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
