"""Span recording from outside the program, and wall-time attribution.

A :class:`Recorder` keeps, per thread, a stack of open spans.  Opening a
child span closes the parent's current *self-time segment*; closing the
child reopens it, so every thread's segments are disjoint and each one
belongs to exactly one layer -- its self time.  Segments live in memory
until the benchmark collects them.

Pool workers are separate processes: they record into their own copy of
the recorder and append one JSON line per job to a per-worker spool file
(``<spool>/<pid>.jsonl``); :meth:`Recorder.collect` merges those files
with the in-process segments.

:func:`attribute` turns segments from every thread and process into a
split of one wall-clock window whose rows sum to the window exactly.
Each instant is shared equally by the *busy* segments active at that
instant; *wait* segments (a thread blocked on another thread, process or
socket) receive an instant only when nothing is busy; an instant with no
segment at all is unattributed.  Self time therefore never exceeds wall
time, whatever the number of threads or workers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "attribute", "format_table"]

_now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class _ThreadState:
    __slots__ = ("stack", "segments", "calls", "busy", "counts")

    def __init__(self):
        self.stack: list[list] = []  # [layer, wait, segment_start, span_start]
        self.segments: list[tuple] = []  # (start, end, layer, wait)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)  # summed durations
        self.counts: dict[str, float] = defaultdict(float)


class Recorder:
    """Per-thread span stacks plus named counts, merged on collection."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.pid = os.getpid()
        self.spool: str | None = None  # worker spool directory while tracing

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def begin(self, layer: str, wait: bool = False) -> None:
        now = _now()
        state = self._state()
        if state.stack:
            top = state.stack[-1]
            state.segments.append((top[2], now, top[0], top[1]))
        state.stack.append([layer, wait, now, now])

    def end(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        now = _now()
        state = self._state()
        layer, wait, seg_start, span_start = state.stack.pop()
        state.segments.append((seg_start, now, layer, wait))
        state.calls[layer] += 1
        state.busy[layer] += now - span_start
        if state.stack:
            state.stack[-1][2] = now
        return now - span_start

    def add(self, name: str, value: float = 1) -> None:
        self._state().counts[name] += value

    def reset(self) -> None:
        """Drop everything recorded so far (open spans included)."""
        with self._lock:
            for state in self._states:
                state.stack.clear()
                state.segments.clear()
                state.calls.clear()
                state.busy.clear()
                state.counts.clear()

    def adopt_process(self) -> None:
        """In a forked worker: forget the parent's copied state once."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self._local = threading.local()
            self._lock = threading.Lock()
            self._states = []

    def _snapshot(self) -> dict:
        segments: list = []
        calls: dict = defaultdict(int)
        busy: dict = defaultdict(float)
        counts: dict = defaultdict(float)
        with self._lock:
            for state in self._states:
                segments.extend(state.segments)
                for table, out in ((state.calls, calls), (state.busy, busy),
                                   (state.counts, counts)):
                    for k, v in table.items():
                        out[k] += v
        return {"segments": segments, "calls": dict(calls),
                "busy": dict(busy), "counts": dict(counts)}

    def spill(self) -> None:
        """Worker side: append this process's records to its spool file."""
        snap = self._snapshot()
        self.reset()
        path = os.path.join(self.spool, f"{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(snap) + "\n")

    def collect(self) -> dict:
        """Merge in-process records with every worker spool file, then
        clear both.  Returns ``{segments, calls, busy, counts}``."""
        merged = self._snapshot()
        self.reset()
        if self.spool is not None:
            for name in sorted(os.listdir(self.spool)):
                path = os.path.join(self.spool, name)
                with open(path) as fh:
                    for line in fh:
                        snap = json.loads(line)
                        merged["segments"].extend(map(tuple, snap["segments"]))
                        for key in ("calls", "busy", "counts"):
                            for k, v in snap[key].items():
                                merged[key][k] = merged[key].get(k, 0) + v
                os.unlink(path)
        return merged


def attribute(segments, t0: float, t1: float) -> tuple[dict[str, float], float]:
    """Split the window ``[t0, t1]`` among layers; returns
    ``(seconds_by_layer, unattributed_seconds)``, which sum to ``t1 - t0``.
    """
    events = []
    for start, end, layer, wait in segments:
        start, end = max(start, t0), min(end, t1)
        if end > start:
            events.append((start, 1, layer, wait))
            events.append((end, -1, layer, wait))
    events.sort(key=lambda e: (e[0], e[1]))
    share: dict[str, float] = defaultdict(float)
    active = {False: defaultdict(int), True: defaultdict(int)}
    totals = {False: 0, True: 0}
    unattributed = 0.0
    prev = t0
    for when, delta, layer, wait in events:
        dt = when - prev
        if dt > 0:
            kind = False if totals[False] else (True if totals[True] else None)
            if kind is None:
                unattributed += dt
            else:
                n = totals[kind]
                for name, count in active[kind].items():
                    if count:
                        share[name] += dt * count / n
        prev = when
        active[wait][layer] += delta
        totals[wait] += delta
    unattributed += t1 - prev
    return dict(share), unattributed


def format_table(title: str, wall: float, rows: dict[str, float],
                 calls: dict[str, float], unattributed: float) -> str:
    """The per-workload layer table: self seconds, share of wall, calls,
    and the unattributed remainder, widest layers first."""
    lines = [
        f"== {title}: layer self time (wall {wall:.4f} s per round) ==",
        f"{'layer':<28}{'self_s':>10}{'share':>9}{'calls':>12}"
        f"{'unattributed_s':>16}",
    ]
    for name, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{name:<28}{secs:>10.4f}{100 * secs / wall:>8.1f}%"
            f"{calls.get(name, 0):>12.1f}{'':>16}"
        )
    lines.append(
        f"{'unattributed':<28}{unattributed:>10.4f}"
        f"{100 * unattributed / wall:>8.1f}%{'':>12}{unattributed:>16.4f}"
    )
    return "\n".join(lines)
