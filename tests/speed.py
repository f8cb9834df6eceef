"""Interleaved solve timing: find_model at a git revision against the working tree.

    python tests/speed.py REV [--seed S [S ...]] [--rounds R]

REV is any revision of this repository, usually the parent of a change. It
is exported with `git archive`, as tests/digest.py exports it. Two child
interpreters, one over REV's src/ and one over the working tree's, each
build the benchmark's solve rounds 0 to R - 1 (default 10) at each seed
(default 1 and 7) with this tree's benchmarks/workloads.py, which they only
read, so both hold the same tasks in the same order. They are driven in
lockstep: for each task in turn, each child runs its find_model once and
reports the time and the result, and the side that runs first alternates
from task to task, so drift in the machine's speed falls on both sides.
Each child runs its first task once, untimed, before the timed pass. A
time is perf_counter_ns around find_model alone.

It prints, for each side, p50, p90 and mean of the task times in us; the
median over tasks of the ratio new / base; the wins, tasks on which the
working tree was faster; and how many tasks' results differ, compared as
digest's _result_bytes. The exit code is 3 when some result differs and 0
otherwise. BLAS threads are whatever the environment sets; the benchmark's
solve products are small enough to run on one. The child is
`python tests/speed.py --child SRC --seed ... --rounds R`. The name does not
start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import digest

ROOT = digest.ROOT


def child_main(src: Path, seeds: list[int], rounds: int, limit: int | None) -> int:
    """The child: build the tasks over src, then time one task per line of stdin.

    It prints the task count, then for each index it reads, the task's time in
    ns and the sha256 of its result bytes, tab-separated.
    """
    sys.path[:0] = [str(src), str(ROOT / "benchmarks")]
    import analogybench
    import workloads
    from analogybench import find_model

    loaded = Path(analogybench.__file__).resolve()
    if src not in loaded.parents:
        raise RuntimeError(f"analogybench loaded from {loaded}, not from {src}")
    # Each task as its (set, config) pair, so the time is find_model's alone.
    workloads.SolveWorkload._task = staticmethod(lambda task_id, cs, config: (cs, config))
    tasks = [task for seed in seeds for round_index in range(rounds)
             for task in workloads.SolveWorkload(seed)._make_tasks(round_index)][:limit]
    find_model(*tasks[0])
    print(len(tasks), flush=True)
    for line in sys.stdin:
        cs, config = tasks[int(line)]
        started = time.perf_counter_ns()
        result = find_model(cs, config)
        elapsed = time.perf_counter_ns() - started
        sha = hashlib.sha256(digest._result_bytes(result)).hexdigest()
        print(f"{elapsed}\t{sha}", flush=True)
    return 0


def compare(base_src: Path, new_src: Path, seeds, rounds: int, limit: int | None = None):
    """Time every task on both sides, alternating which runs first.

    Returns (base_ns, new_ns, differing): the per-task times of each side, in
    task order, and the indices of the tasks whose results differ.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--rounds", str(rounds),
            "--seed", *map(str, seeds)] + (["--limit", str(limit)] if limit else [])
    children = [subprocess.Popen(argv + ["--child", str(src)], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True)
                for src in (base_src, new_src)]
    try:
        counts = [int(child.stdout.readline()) for child in children]
        if counts[0] != counts[1]:
            raise RuntimeError(f"the two sides built {counts[0]} and {counts[1]} tasks")
        times: list[list[int]] = [[], []]
        shas: list[list[str]] = [[], []]
        for i in range(counts[0]):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                children[side].stdin.write(f"{i}\n")
                children[side].stdin.flush()
                elapsed, sha = children[side].stdout.readline().split()
                times[side].append(int(elapsed))
                shas[side].append(sha)
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    if any(child.returncode for child in children):
        raise RuntimeError(f"a timing child exited {[child.returncode for child in children]}")
    differing = [i for i, (a, b) in enumerate(zip(*shas)) if a != b]
    return times[0], times[1], differing


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare against")
    parser.add_argument("--seed", type=int, nargs="+", default=[1, 7],
                        help="benchmark seeds of the solve rounds (default 1 7)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="solve rounds per seed, from round 0 (default 10)")
    parser.add_argument("--limit", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.child:
        return child_main(Path(args.child).resolve(), args.seed, args.rounds, args.limit)
    if not args.rev:
        parser.error("a revision is required")
    sha = digest.resolve(args.rev)
    if sha is None:
        parser.error(f"not a commit of this repository: {args.rev}")
    started = time.perf_counter()
    with digest.exported(sha) as tree:
        base, new, differing = compare(tree / "src", ROOT / "src", args.seed, args.rounds)
    print(f"base {sha[:12]} against the working tree of {ROOT}: {len(base)} solve tasks, "
          f"seeds {' '.join(map(str, args.seed))}, rounds 0-{args.rounds - 1}")
    for side, ns in (("base", base), ("new", new)):
        us = np.array(ns) / 1e3
        p50, p90 = np.percentile(us, [50, 90])
        print(f"{side:<5} p50 {p50:9.1f} us  p90 {p90:9.1f} us  mean {us.mean():9.1f} us")
    ratios = [b / a for a, b in zip(base, new)]
    wins = sum(b < a for a, b in zip(base, new))
    print(f"median per-task ratio new / base {statistics.median(ratios):.3f}; "
          f"new faster on {wins} of {len(base)} tasks")
    print(f"{len(differing)} results differ" + (
        f", the first at task indices {differing[:digest.SHOWN]}" if differing else ""))
    print(f"took {time.perf_counter() - started:.1f} s")
    return digest.EXIT_DIFFERS if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
