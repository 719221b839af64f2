"""The benchmark's own tests: tiny runs of every workload.

    python3 -m pytest perfbench/tests -q

Each workload runs a warm-up and one tiny round untraced and traced; every metric
``BENCHMARK.json`` names must come out with its unit, the traced layer
rows must sum to the traced wall time, and a wrong expected value must
be reported as a failed operation.
"""

import json
import os
import sys
import threading
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness, workloads  # noqa: E402
from perfbench.spans import Recorder, attribute  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: The figures each workload's summary line must carry, with units.
SUMMARY_UNITS = {
    "sweep": {"sim_mrefs_per_s": "Mrefs/s"},
    "tiers": {"auto_jobs_per_s": "jobs/s", "predict_jobs_per_s": "jobs/s",
              "exact_frac": "ratio", "model_l1_err_pct": "%"},
    "tune": {"tune_rps": "req/s", "warm_p50_ms": "ms", "cold_p50_ms": "ms",
             "warm_samples": "count"},
}

TUNE_SPECS = [
    {"kernel": "dot", "n": 32, "search": "none", "budget": 8, "max_lines": 2},
    {"kernel": "jacobi", "n": 32, "search": "coordinate", "budget": 8,
     "max_lines": 2},
]


def tiny(name: str, expected=None):
    if name == "sweep":
        wl = workloads.Sweep(expected)
        wl.programs = ("expl",)
    elif name == "tiers":
        wl = workloads.Tiers(expected)
        wl.count = 6
    else:
        wl = workloads.Tune(expected, universe=TUNE_SPECS)
        wl.repeats = 110  # enough warm samples for a p90
    return wl


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", ["sweep", "tiers", "tune"])
def test_untraced_run_emits_end_to_end_metrics(name, tmp_path):
    report = harness.run(tiny(name), seed=3, seconds=0, min_rounds=1,
                         trace=False, workdir=str(tmp_path))
    assert report.failed == 0, report.notes
    assert report.attempted > 0
    assert units(report.metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in report.metrics.values())
    summary = units(report.summary)
    for metric, unit in SUMMARY_UNITS[name].items():
        assert summary.get(metric) == unit
    if name == "tune":
        assert any(k.startswith("warm_p") and k != "warm_p50_ms" for k in summary)


@pytest.mark.parametrize("name", ["sweep", "tiers", "tune"])
def test_traced_run_emits_per_layer_metrics(name, tmp_path):
    report = harness.run(tiny(name), seed=3, seconds=0, min_rounds=1,
                         trace=True, workdir=str(tmp_path))
    assert report.failed == 0, report.notes
    assert units(report.metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v for k, (v, _) in report.metrics.items()}
    rows = sum(v for k, v in values.items() if k.endswith(".seconds"))
    assert rows == pytest.approx(values["traced.wall_s"], rel=1e-9)
    assert "unattributed" in report.table
    for metric in ("sim.refs.uncounted", "cache.L1.misses.uncounted",
                   "cache.L2.misses.uncounted"):
        assert values[metric] == 0
    if name == "sweep":
        assert values["cache.L1.seconds"] > 0 and values["trace.refs"] > 0
        assert values["exec.pool_busy_ratio"] > 0
    elif name == "tiers":
        assert values["symbolic.classify.calls"] > 0
        assert values["model.predict.calls"] > 0
        assert values["model.predict.uncounted"] == 0
    else:
        assert values["service.served.computed"] == len(TUNE_SPECS)
        assert values["service.parse.seconds"] > 0


def _corrupt(table: dict, key: str) -> dict:
    wrong = json.loads(json.dumps(table))
    if isinstance(wrong[key], list):
        wrong[key][-1] += 1
    else:
        wrong[key]["evaluation"]["total_refs"] += 1
    return wrong


@pytest.mark.parametrize("name", ["sweep", "tiers", "tune"])
def test_wrong_expected_value_is_a_failed_operation(name, tmp_path):
    wl = tiny(name)
    if name == "tiers":
        # The runtime oracle covers unseen seeds; the committed table
        # can still overrule it.
        job = wl.inputs(3, 0)[0]
        from repro.exec.executor import SweepExecutor
        with SweepExecutor(workers=1, backend="sim") as ex:
            right = workloads._levels(ex.run([job])[0])
        key = "/".join(map(str, job.tag))
        expected = _corrupt({key: right}, key)
    elif name == "sweep":
        key = "/".join(map(str, wl.inputs(3, 0)[0].tag))
        expected = _corrupt(wl.expected, key)
    else:
        expected = _corrupt(wl.expected, workloads.spec_id(TUNE_SPECS[1]))
    report = harness.run(tiny(name, expected), seed=3, seconds=0,
                         min_rounds=1, trace=False, workdir=str(tmp_path))
    assert report.failed >= 1
    assert report.failed < report.attempted


def test_inputs_come_from_the_seed_alone():
    for name in ("sweep", "tiers", "tune"):
        wl = tiny(name, expected={})
        first, again, other = wl.inputs(5, 1), wl.inputs(5, 1), wl.inputs(6, 1)
        tags = (lambda xs: [getattr(x, "tag", x) for x in xs])
        assert tags(first) == tags(again)
        assert tags(first) != tags(other)


def test_tune_stream_serves_every_request_once_cold():
    wl = workloads.Tune(expected={})
    stream = wl.inputs(1, 0)
    assert len(stream) == len(wl.universe) + wl.repeats
    assert {workloads.spec_id(s) for s in stream} == {
        workloads.spec_id(s) for s in wl.universe}
    assert set(workloads.Tune().expected) == {
        workloads.spec_id(s) for s in wl.universe}


def test_attribute_shares_busy_time_and_fills_gaps_with_waits():
    segments = [
        (0.0, 4.0, "dispatch", True),   # a parent waiting on two workers
        (1.0, 3.0, "cache", False),
        (2.0, 3.0, "trace", False),
    ]
    rows, unattributed = attribute(segments, 0.0, 5.0)
    assert rows == pytest.approx({"dispatch": 2.0, "cache": 1.5, "trace": 0.5})
    assert unattributed == pytest.approx(1.0)


def test_recorder_self_time_excludes_children_across_threads():
    rec = Recorder()

    def work():
        rec.begin("outer")
        rec.begin("inner")
        time.sleep(0.02)
        rec.end()
        rec.end()

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    merged = rec.collect()
    assert merged["calls"] == {"outer": 2, "inner": 2}
    self_outer = sum(e - s for s, e, layer, _ in merged["segments"] if layer == "outer")
    assert self_outer < 0.01 < merged["busy"]["outer"]
