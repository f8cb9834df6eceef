"""Closed-loop round runner, span tracer, statistics and run metadata.

The benchmark drives one client in one process: a workload is a list of
tasks, run one after another (a round); the next task starts only when the
previous one has returned. Outputs are checked after the round, outside its
timed region.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Verdict of a task whose planted-feasible input was not solved within budget:
#: the answer "not found" is truthful, so it is not a failure, but the user got
#: no model, so it counts against ok_frac.
MISS = "miss"


# ---------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _OpenSpan:
    __slots__ = ("tracer", "name", "task", "index")

    def __init__(self, tracer: "Tracer", name: str, task: str | None):
        self.tracer = tracer
        self.name = name
        self.task = task

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t.spans.append(Span(self.name, perf_counter(), math.nan, parent, self.task))
        t._open.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index].end = perf_counter()
        t._open.pop()
        return False


_NULL = contextlib.nullcontext()


class Tracer:
    """In-memory spans and counters recorded around calls into each layer.

    A span has a name (``<layer>.<call>``), start, end, parent span and task
    id. Disabled tracers hand out a shared no-op context, so the untraced
    runs pay one method call per boundary.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def span(self, name: str, task: str | None = None):
        if not self.enabled:
            return _NULL
        return _OpenSpan(self, name, task)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus the time their children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, inner in zip(self.spans, child_time):
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - inner
        return out

    def rows(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "task": s.task}
            for i, s in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------------
# Tasks and rounds


@dataclass
class Task:
    """One closed-loop request: ``run`` is timed, ``check`` judges its output.

    ``check`` returns None when the output is right, MISS for a planted set
    the solver did not find, or a message saying what is wrong.
    ``fingerprint`` reduces an output to a value that must repeat exactly
    when the same task runs again.
    """

    id: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], str | None]
    fingerprint: Callable[[Any], Any] = repr


@dataclass
class TaskError:
    message: str


#: Nominal duration of one speed probe (about its median on a 2-vCPU Xeon VM);
#: task times are reported at the machine speed where the probe takes this long.
REFERENCE_PROBE_S = 0.006

_PROBE_RNG = np.random.default_rng(0)
_PROBE_W = _PROBE_RNG.random((256, 32))
_PROBE_M = (_PROBE_RNG.random((32, 8)) > 0.5).astype(float)


def speed_probe() -> float:
    """Time a fixed mix of the operations the program spends its time in.

    Rational arithmetic, dict and loop work in the interpreter, and small
    numpy products; none of it calls the program, so no change to the program
    can move it. The single-core speed of a shared machine drifts by tens of
    percent within seconds, and each task time is divided by the probes taken
    right before and after it.
    """
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7, i)
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(100):
        (_PROBE_W @ _PROBE_M).sum(axis=0)
        np.maximum(_PROBE_W[:, 0] - 0.5, 0.0) ** 2
    return perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Scale a measured duration by the probes taken before and after it."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)


def timed(fn: Callable[[], Any]) -> float:
    """Duration of one call of fn, at the reference speed."""
    before = speed_probe()
    start = perf_counter()
    fn()
    seconds = perf_counter() - start
    return at_reference_speed(seconds, before, speed_probe())


@dataclass
class RoundResult:
    times: list[float]  # per task, scaled to the reference speed
    raw_times: list[float]  # per task, as measured
    outputs: list

    @property
    def wall(self) -> float:
        """Time to finish the round's task list at the reference speed."""
        return sum(self.times)


def run_round(tasks: list[Task], tracer: Tracer, label: str) -> RoundResult:
    raw: list[float] = []
    probes = [speed_probe()]
    outputs: list = []
    with tracer.span("harness.round", label):
        for task in tasks:
            with tracer.span("harness.task", task.id):
                t0 = perf_counter()
                try:
                    out = task.run(tracer)
                except Exception as exc:  # a crashing task is a failed task
                    traceback.print_exc(file=sys.stderr)
                    out = TaskError(f"{type(exc).__name__}: {exc}")
                raw.append(perf_counter() - t0)
            outputs.append(out)
            probes.append(speed_probe())
    scaled = [at_reference_speed(t, before, after)
              for t, before, after in zip(raw, probes, probes[1:])]
    return RoundResult(scaled, raw, outputs)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    missed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, task_id: str, verdict: str | None) -> None:
        self.attempted += 1
        if verdict == MISS:
            self.missed += 1
        elif verdict is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{task_id}: {verdict}")

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed - self.missed) / self.attempted


class Checker:
    """Judges round outputs; a task seen before must reproduce its first output."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self._first: dict[str, tuple[Any, str | None]] = {}

    def check(self, tasks: list[Task], result: RoundResult, tracer: Tracer) -> None:
        with tracer.span("harness.check"):
            for task, out in zip(tasks, result.outputs):
                self.tally.add(task.id, self._verdict(task, out))

    def _verdict(self, task: Task, out) -> str | None:
        if isinstance(out, TaskError):
            return out.message
        try:
            fp = task.fingerprint(out)
            if task.id in self._first:
                first_fp, first_verdict = self._first[task.id]
                return first_verdict if fp == first_fp else "output differs from the first run"
            verdict = task.check(out)
        except Exception as exc:  # a malformed output must not crash the run
            traceback.print_exc(file=sys.stderr)
            return f"check raised {type(exc).__name__}: {exc}"
        self._first[task.id] = (fp, verdict)
        return verdict


# ---------------------------------------------------------------------------
# Statistics and metadata


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
