"""Benchmark of analogybench: the cli, solve and verify workloads.

Run one workload (the last stdout line is the result JSON):

    python3 benchmarks/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run every workload and print a table of all metrics with their units:

    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones. ``--out FILE`` appends a record (result,
seed, generator parameters, git SHA, machine) to a JSON-lines file, and

    python3 benchmarks/run.py --compare BASE.jsonl NEW.jsonl

prints each metric's change between two such files per workload and flags
every end-to-end change beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "analogybench"
WORKLOAD_NAMES = ("cli", "solve", "verify")

#: Set-up runs this many times per run; setup_s is their median plus the import.
SETUP_REPEATS = 5
#: A run keeps going past --seconds until it has this many tasks, so that at
#: least ten lie beyond task_ms_p90.
MIN_TASKS = 100

# The benchmark's own modules import numpy and the program, so they are
# imported inside functions: after the check that src/ exists, and inside the
# import timer that setup_s includes.


def run_untraced(workload, seconds: float, min_tasks: int = MIN_TASKS):
    """Closed loop of whole rounds until `seconds` have passed; end-to-end metrics."""
    import numpy as np

    from harness import Checker, Tally, Tracer, metric, run_round, timed

    setups = [timed(workload.setup) for _ in range(SETUP_REPEATS)]
    tracer = Tracer(False)
    tally = Tally()
    checker = Checker(tally)
    walls: list[float] = []
    times: list[float] = []
    raw_times: list[float] = []
    start = perf_counter()
    while True:
        tasks = workload.tasks(len(walls))
        result = run_round(tasks, tracer, f"r{len(walls)}")
        checker.check(tasks, result, tracer)
        walls.append(result.wall)
        times += result.times
        raw_times += result.raw_times
        if perf_counter() - start >= seconds and len(times) >= min_tasks:
            break
    # Repeated rounds time one list, so take the median; fresh rounds each time
    # a different draw of inputs, so take the mean.
    wall = statistics.median(walls) if workload.repeats else sum(walls) / len(walls)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "task_ms_p50": metric(np.percentile(times, 50) * 1e3, "ms"),
        "task_ms_p90": metric(np.percentile(times, 90) * 1e3, "ms"),
        "ok_frac": metric(tally.ok_frac, "fraction"),
        "peak_rss_mb": metric(workload.peak_rss_mb(), "MB"),
    }
    measured = {
        "rounds": len(walls), "tasks": len(times),
        "raw_task_ms_p50": np.percentile(raw_times, 50) * 1e3,
        "raw_task_ms_p90": np.percentile(raw_times, 90) * 1e3,
        "raw_task_s_total": sum(raw_times), "task_s_total": sum(times),
    }
    return tally, metrics, measured


def run_traced(name: str, seed: int, sizes):
    """Per-layer metrics: tracing overhead on `name`, then one traced round of each workload."""
    from harness import Checker, Tally, Tracer, metric, run_round
    from layers import probe, round_metrics, self_time_metrics
    from workloads import WORKLOADS

    workloads = {n: cls(seed, sizes) for n, cls in WORKLOADS.items()}
    for w in workloads.values():
        w.setup()
    tally = Tally()
    checker = Checker(tally)
    # Tracing overhead: the named workload's first round twice untraced and
    # twice traced, in the order off-on-on-off, compared task by task.
    off, on = Tracer(False), Tracer(True)
    tasks = workloads[name].tasks(0)
    spent = {off: [0.0] * len(tasks), on: [0.0] * len(tasks)}
    for tracer in (off, on, on, off):
        result = run_round(tasks, tracer, "overhead")
        checker.check(tasks, result, off)
        spent[tracer] = [a + b for a, b in zip(spent[tracer], result.times)]
    overhead = statistics.median([t / u for t, u in zip(spent[on], spent[off])]) - 1.0

    tracer = Tracer(True)
    for w in workloads.values():
        tasks = w.tasks(0)
        result = run_round(tasks, tracer, w.name)
        checker.check(tasks, result, tracer)
    metrics = round_metrics(tracer)
    metrics.update(probe(seed, tracer, sizes))
    metrics.update(self_time_metrics(tracer))
    metrics["trace.overhead_frac"] = metric(overhead, "fraction")
    return tally, metrics, tracer


def run_one(args) -> int:
    if not PROGRAM.is_dir():
        print(f"error: no program sources at {PROGRAM}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    try:
        import analogybench
        import workloads
    except ImportError as exc:
        print(f"error: cannot import analogybench from src/: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if Path(analogybench.__file__).resolve().parent != PROGRAM:
        print(f"error: analogybench imported from {analogybench.__file__}, not src/",
              file=sys.stderr)
        return 2
    from harness import REFERENCE_PROBE_S, environment, metric, speed_probe

    speed_probe()  # the first call warms its own code paths
    import_s *= REFERENCE_PROBE_S / statistics.median(speed_probe() for _ in range(5))

    sizes = workloads.Sizes()
    if args.trace:
        tally, metrics, tracer = run_traced(args.workload, args.seed, sizes)
        run_info = {"spans": len(tracer.spans)}
        if args.spans:
            with open(args.spans, "w") as fh:
                for row in tracer.rows():
                    fh.write(json.dumps(row) + "\n")
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
        tally, metrics, run_info = run_untraced(workload, args.seconds)
        metrics["setup_s"] = metric(metrics["setup_s"]["value"] + import_s, "s")

    for line in tally.failures:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "params": asdict(sizes),
        "run": {**run_info, "missed": tally.missed},
    }
    print(json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**record, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process; prints one table."""
    status = 0
    print(f"{'workload':8s} {'metric':36s} {'value':>14s}  unit")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:8s} failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric_name, m in result["metrics"].items():
            print(f"{name:8s} {metric_name:36s} {m['value']:14.6g}  {m['unit']}")
        print(f"{name:8s} {'(tasks attempted / failed)':36s} "
              f"{result['attempted']:>7d} / {result['failed']:<5d} correct={result['correct']}")
        if not result["correct"]:
            status = 1
    return status


def compare(base_path: str, new_path: str) -> int:
    """Per workload and metric: median of each file's runs, change, and bound flag."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}

    def load(path):
        grouped: dict[str, dict[str, list[float]]] = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    per = grouped.setdefault(rec["workload"], {})
                    for name, m in rec["result"]["metrics"].items():
                        per.setdefault(name, []).append(m["value"])
        return grouped

    base, new = load(base_path), load(new_path)
    regressions = 0
    print(f"{'workload':8s} {'metric':36s} {'base':>12s} {'new':>12s} {'change':>9s}")
    for wl in sorted(set(base) | set(new)):
        names = sorted(set(base.get(wl, {})) | set(new.get(wl, {})))
        for name in names:
            b, n = base.get(wl, {}).get(name), new.get(wl, {}).get(name)
            if not b or not n:
                print(f"{wl:8s} {name:36s} {'missing in ' + ('base' if not b else 'new'):>35s}")
                continue
            b, n = statistics.median(b), statistics.median(n)
            change = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
            info = bounds.get(name) or layers.get(name) or {"better": "lower"}
            worse = change > 0 if info["better"] == "lower" else change < 0
            flag = ""
            if name in bounds and abs(change) > info["bound"]:
                flag = "REGRESSION" if worse else "improved"
                regressions += worse
            print(f"{wl:8s} {name:36s} {b:12.6g} {n:12.6g} {change:+9.2%} {flag}")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON-lines record of the run")
    parser.add_argument("--spans", help="traced runs: write every span as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
