"""Same bytes and time: the captures of a git revision against the working tree.

    python tests/digest.py REV [--reduced]

REV is any revision of this repository, usually the parent of a change. It
is exported with `git archive REV | tar -x` into a temporary directory
(local git only; no checkout changes), and the working tree's src/ is copied
into another. Two child interpreters, one over each src/, then run one fixed
capture list in lockstep. Both build their inputs with this tree's
benchmarks/workloads.py and tests/conftest.py, so only the program differs.
The parts are:

- solve: find_model on every task of solve rounds 0-4 at benchmark seeds
  1 and 7;
- infeasible: find_model on the verify workload's infeasible sets at seeds
  1 and 7;
- screened: searches that refine many times and screen each later block:
  infeasible sets at 5 and 6 atoms with 5 descent sweeps, and one tight
  planted set with 2, at seed and budget 20 000;
- sparse: find_model on each set of conftest.SPARSE_MISSES;
- grid: grid_enumerate on each corpus set within the grid budget, at
  resolutions 1-20;
- fuzz: fuzz_transitivity at seeds 1, 3, 5, 7 and 11, at 1, 511, 513,
  4 097, 20 000 and 100 000 samples;
- miner: mine_naive_transitivity_counterexample at seeds 1, 3 and 7, at
  budgets 1, 7 and 100 000;
- cli: stdout, stderr and exit code of one CLI child per argument list:
  check --json and find-model --json on each bundled file at the default
  seed and --seed 3, check as a table on each, the benchmark's two sweeps,
  fuzz-theorem --json, counterexample --json and as a table, and the
  argument lists of test_cli.py's TestSameSeedAcrossProcesses. Each child
  runs in a directory holding a copy of its side's corpus, so both sides
  name the same relative paths. The time check prints to stderr is
  replaced by a fixed word.

A find_model capture is found, samples_used, restarts_refined,
penalty.hex(), the weight bytes and each achieved margin's hex.

Bytes. It prints one sha256 per part and side, and one overall. Captures
are matched by part and name, and for each part that differs it lists every
capture whose bytes differ and every capture one side alone has: how many,
and the first SHOWN (20) names. The exit code is 0 when every part is equal
and 3 when some part differs; any other code is a crash. A capture that
raises records the exception as its value, and the report lists it. The
digest is not a golden hash: BLAS sums a column in an order that differs
between machines and numpy versions, so it compares two revisions on one
machine only.

Time. Each capture runs once on each side, and the side that runs it first
alternates from capture to capture. Per part it prints the median over
captures of the ratio new / base of their times, the wins (captures the new
side ran faster), each side's p50, and each side's minor page faults per
capture; and OPENBLAS_NUM_THREADS once. The times are for reading: they never
change the exit code. A capture's time is perf_counter_ns around its thunk.
Its faults are getrusage's ru_minflt around it, of the child itself, or of
its CLI children for the cli part. A capture reads about 10 % slower on the
side that runs it second, right after the other side, than on the side that
runs it first, right after its own previous capture; alternation puts that
on both sides alike. On a 2-vCPU machine a same-tree run (REV at HEAD, the
working tree clean) read the solve part's median ratio within 0.979-1.014
over 25 runs with OPENBLAS_NUM_THREADS=1; with two BLAS threads it spread
over 0.73-1.13. A faster side that also takes fewer faults may be an
allocator effect, not less work.

--reduced runs a short capture list, the one the Tier-1 tests run. The child
is `python tests/digest.py --capture SRC [--reduced]`; capture_main states
its protocol. The name does not start with test_, so pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_DIFFERS = 3
PARTS = ("solve", "infeasible", "screened", "sparse", "grid", "fuzz", "miner", "cli")
SHOWN = 20

_ELAPSED = re.compile(rb"elapsed: [0-9.]+s")


def _result_bytes(result) -> bytes:
    """One find_model result as bytes: every field a same-seed run repeats."""
    margins = [(name, value.hex()) for name, value in result.achieved_margins.items()]
    return repr((result.found, result.samples_used, result.restarts_refined,
                 result.penalty.hex(), result.distribution.weights.tobytes().hex(),
                 margins)).encode()


def _workload_captures(workloads, harness, reduced: bool):
    """(part, name, thunk) of the solve, infeasible, screened and sparse parts."""
    from analogybench import SearchConfig, find_model, finder
    from conftest import SPARSE_MISSES, sparse_witness

    tracer = harness.Tracer(False)
    for seed in (1,) if reduced else (1, 7):
        solve = workloads.SolveWorkload(seed)
        for round_index in range(1 if reduced else 5):
            tasks = solve._make_tasks(round_index)
            for task in tasks[:6] if reduced else tasks:
                yield "solve", f"{seed}:{task.id}", lambda t=task: _result_bytes(t.run(tracer))
    for seed in (1,) if reduced else (1, 7):
        verify = workloads.VerifyWorkload(seed)
        verify.setup()
        tasks = [t for t in verify.tasks(0) if t.id.startswith("verify:infeasible:")]
        for task in tasks[:2] if reduced else tasks:
            yield "infeasible", f"{seed}:{task.id}", lambda t=task: _result_bytes(t.run(tracer))

    def screened(cs, sweeps):
        steps = finder.REFINE_STEPS
        finder.REFINE_STEPS = sweeps
        try:
            return _result_bytes(find_model(cs, SearchConfig(seed=20_000, max_samples=20_000)))
        finally:
            finder.REFINE_STEPS = steps

    rng, sizes = workloads._rng("verify", 20_000), workloads.Sizes()
    sets = [(f"infeasible-{atoms}-family-{family}", workloads.infeasible_set(rng, atoms, family),
             5) for atoms in (5, 6) for family in (0, 1)]
    sets.append(("planted-4", workloads.planted_set(rng, 4, sizes.tight_frac, sizes)[0], 2))
    for name, cs, sweeps in sets[:1] if reduced else sets:
        yield "screened", name, lambda cs=cs, sweeps=sweeps: screened(cs, sweeps)
    for seed in SPARSE_MISSES[:1] if reduced else SPARSE_MISSES:
        cs, config, _ = sparse_witness(seed)
        yield "sparse", str(seed), lambda cs=cs, c=config: _result_bytes(find_model(cs, c))


def _library_captures(reduced: bool):
    """(part, name, thunk) of the grid, fuzz and miner parts."""
    from analogybench import fuzz_transitivity, grid_enumerate
    from analogybench import mine_naive_transitivity_counterexample as mine
    from analogybench.finder import MAX_GRID_WORLDS
    from analogybench.scenarios import corpus_dir, load_scenario

    files = sorted(corpus_dir().glob("*.json"))
    for path in files[:1] if reduced else files:
        scenario = load_scenario(path)
        if scenario.weights is not None:
            continue
        cs = scenario.constraint_set()
        if cs.space.world_count > MAX_GRID_WORLDS:
            continue
        for resolution in range(1, 7 if reduced else 21):
            yield "grid", f"{path.name}:{resolution}", \
                lambda cs=cs, r=resolution: repr(grid_enumerate(cs, r)).encode()
    for seed in (1,) if reduced else (1, 3, 5, 7, 11):
        for samples in (1, 513, 4_097) if reduced else (1, 511, 513, 4_097, 20_000, 100_000):
            yield "fuzz", f"{seed}:{samples}", \
                lambda s=seed, n=samples: repr(fuzz_transitivity(n, s, 1e-6)).encode()

    def miner(seed, budget):
        ce = mine(seed, budget)
        if ce is None:
            return b"None"
        return repr((ce.samples_used, ce.distribution.weights.tobytes().hex(),
                     [p.mask.tobytes().hex() for p in (ce.x, ce.y, ce.z)])).encode()

    for seed in (1,) if reduced else (1, 3, 7):
        for budget in (100_000,) if reduced else (1, 7, 100_000):
            yield "miner", f"{seed}:{budget}", lambda s=seed, b=budget: miner(s, b)


def _cli_argvs(reduced: bool) -> list[list[str]]:
    """The CLI argument lists, paths relative to a directory holding corpus/."""
    riemann, exhausted = "corpus/riemann_weil.json", "exhausted.json"
    if reduced:
        return [["check", riemann, "--json", "--seed", "3"],
                ["find-model", exhausted, "--json", "--seed", "3"]]
    files = [f"corpus/{name}" for name in (
        "euler_cauchy.json", "euler_polya.json", "riemann_weil.json", "taylor_series.json",
        "volume.json", "volume_star.json", "variants/riemann_weil_entailing.json")]
    argvs = [[command, path, "--json", *seed]
             for command in ("check", "find-model") for path in files
             for seed in ([], ["--seed", "3"])]
    argvs += [["check", path] for path in files]
    argvs += [["sweep", riemann, "--param", "P(G)", "--range", "0:1:0.1"],
              ["sweep", riemann, "--param", "margins.a", "--range", "0.01:0.10:0.01"],
              ["fuzz-theorem", "--json"], ["counterexample", "--json"], ["counterexample"]]
    # test_cli.py's TestSameSeedAcrossProcesses, without the lists above.
    for argv in (["check", riemann, "--json", "--seed", "3"],
                 ["sweep", riemann, "--param", "P(G)", "--range", "0:1:0.25", "--seed", "3"],
                 ["sweep", riemann, "--param", "margins.a", "--range", "0:0.1:0.05", "--seed", "3"],
                 ["find-model", riemann, "--json", "--seed", "3"],
                 ["counterexample", "--json", "--seed", "3"],
                 ["fuzz-theorem", "--json", "--samples", "20000", "--seed", "3"],
                 ["find-model", exhausted, "--json", "--seed", "3"]):
        if argv not in argvs:
            argvs.append(argv)
    return argvs


def _cli_captures(src: Path, workdir: Path, reduced: bool):
    """(part, name, thunk) of the cli part, each thunk one CLI child in workdir."""
    shutil.copytree(src / "analogybench" / "corpus", workdir / "corpus")
    # riemann_weil with P(R) > 0.9 and P(R) < 0.1: find-model runs out its budget.
    data = json.loads((workdir / "corpus" / "riemann_weil.json").read_text())
    data["distribution"]["constraints"] += [
        {"kind": "prob_gt", "lhs": {"target": "R"}, "rhs": {"const": 0.9}, "label": "above"},
        {"kind": "prob_lt", "lhs": {"target": "R"}, "rhs": {"const": 0.1}, "label": "below"},
    ]
    (workdir / "exhausted.json").write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(argv):
        child = subprocess.run([sys.executable, "-m", "analogybench.cli", *argv], cwd=workdir,
                               env=env, capture_output=True, timeout=300)
        return repr((child.returncode, child.stdout,
                     _ELAPSED.sub(b"elapsed: TIME", child.stderr))).encode()

    for argv in _cli_argvs(reduced):
        yield "cli", " ".join(argv), lambda argv=argv: run(argv)


def capture_main(src: Path, reduced: bool) -> int:
    """The child: list the captures over src, then run one per index read on stdin.

    It prints the capture count, then each capture's part and name,
    tab-separated. For each index it reads it runs that capture and prints
    its time in ns (perf_counter_ns around the thunk), its minor page faults
    (of this process, or of its CLI children for the cli part), 1 if it
    raised or else 0, and the sha256 of its bytes, tab-separated.
    """
    sys.path[:0] = [str(src), str(ROOT / "benchmarks")]
    import analogybench
    import harness
    import workloads

    # An import hook, such as some editable installs add, could load another
    # copy of the package; then both sides would read one program.
    loaded = Path(analogybench.__file__).resolve()
    if src not in loaded.parents:
        raise RuntimeError(f"analogybench loaded from {loaded}, not from {src}")

    with tempfile.TemporaryDirectory() as workdir:
        captures = [*_workload_captures(workloads, harness, reduced), *_library_captures(reduced),
                    *_cli_captures(src, Path(workdir), reduced)]
        print(len(captures), *(f"{part}\t{name}" for part, name, _ in captures), sep="\n",
              flush=True)
        for line in sys.stdin:
            part, _, thunk = captures[int(line)]
            who = resource.RUSAGE_CHILDREN if part == "cli" else resource.RUSAGE_SELF
            faults = resource.getrusage(who).ru_minflt
            started = time.perf_counter_ns()
            try:
                value, raised = thunk(), 0
            except Exception as exc:  # recorded, so the other captures still run
                value, raised = f"raised {type(exc).__name__}: {exc}".encode(), 1
                traceback.print_exc()
            elapsed = time.perf_counter_ns() - started
            faults = resource.getrusage(who).ru_minflt - faults
            print(f"{elapsed}\t{faults}\t{raised}\t{hashlib.sha256(value).hexdigest()}",
                  flush=True)
    return 0


def lockstep(base_src: Path, new_src: Path, reduced: bool) -> list[list[tuple]]:
    """Run the capture list over base_src and new_src, one capture at a time.

    One capture child runs over each src. Captures are matched by (part,
    name) and run in new's order, then those base alone has; the side that
    runs first alternates from capture to capture, so drift in the machine's
    speed falls on both sides. Returns, for base and for new in that child's
    own order, one (part, name, sha256, ns, faults) per capture; a capture
    that raised has " [raised]" added to its name.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--capture"]
    children = [subprocess.Popen(argv + [str(src)] + ["--reduced"] * reduced, text=True,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                for src in (base_src, new_src)]

    def read(child):
        line = child.stdout.readline()
        if not line:
            raise RuntimeError(f"capture child exited {child.wait()}")
        return line.rstrip("\n").split("\t")

    try:
        keys = [[tuple(read(child)) for _ in range(int(read(child)[0]))] for child in children]
        index = [{key: i for i, key in enumerate(side)} for side in keys]
        order = keys[1] + [key for key in keys[0] if key not in index[1]]
        results: list[list[tuple]] = [[()] * len(side) for side in keys]
        for k, (part, name) in enumerate(order):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                i = index[side].get((part, name))
                if i is not None:
                    children[side].stdin.write(f"{i}\n")
                    children[side].stdin.flush()
                    ns, faults, raised, sha = read(children[side])
                    results[side][i] = (part, name + " [raised]" * int(raised), sha,
                                        int(ns), int(faults))
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    if any(child.returncode for child in children):
        raise RuntimeError(f"capture children exited {[child.returncode for child in children]}")
    return results


def part_digests(lines) -> dict[str, str]:
    """One sha256 per part over its captures' names and hashes, in order, and
    one overall over the parts' digests."""
    parts = {part: hashlib.sha256() for part in PARTS}
    for part, name, sha, *_ in lines:
        parts[part].update(f"{name}\t{sha}\n".encode())
    digests = {part: h.hexdigest() for part, h in parts.items()}
    digests["overall"] = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    return digests


def differences(base, new) -> dict[str, list[str]]:
    """For each part that differs, every differing capture, matched by
    (part, name): the names whose bytes differ, in new's order, then the
    names base alone has and new alone has, each marked so."""
    a = {(p, n): s for p, n, s, *_ in base}
    b = {(p, n): s for p, n, s, *_ in new}
    found: dict[str, list[str]] = {}
    for part in PARTS:
        names = [n for p, n, s, *_ in new if p == part and a.get((p, n), s) != s]
        names += [f"{n} (base only)" for p, n, *_ in base if p == part and (p, n) not in b]
        names += [f"{n} (new only)" for p, n, *_ in new if p == part and (p, n) not in a]
        if names:
            found[part] = names
    return found


def timing(base, new, part: str) -> str:
    """Two report lines on a part's times: over the captures both sides ran,
    the median per-capture ratio new / base and the wins (captures new ran
    faster); then each side's p50 and its minor page faults per capture."""
    a = {(p, n): ns for p, n, _, ns, _ in base if p == part}
    pairs = [(a[p, n], ns) for p, n, _, ns, _ in new if p == part and (p, n) in a]
    if not pairs:
        return "  time: no capture ran on both sides"
    sides = [[(ns, faults) for p, _, _, ns, faults in lines if p == part] for lines in (base, new)]
    p50 = [statistics.median(ns for ns, _ in side) / 1e6 for side in sides]
    faults = [statistics.fmean(f for _, f in side) for side in sides]
    return (f"  time: median new / base {statistics.median(b / a for a, b in pairs):.3f}, "
            f"new faster on {sum(b < a for a, b in pairs)} of {len(pairs)}\n"
            f"  p50 base {p50[0]:.3f} ms, new {p50[1]:.3f} ms; "
            f"minor faults per capture base {faults[0]:.1f}, new {faults[1]:.1f}")


def resolve(rev: str) -> str | None:
    """The commit sha that rev names in this repository, or None."""
    resolved = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                               f"{rev}^{{commit}}"], capture_output=True, text=True)
    return resolved.stdout.strip() if resolved.returncode == 0 else None


@contextlib.contextmanager
def exported(sha: str):
    """A temporary directory holding `git archive sha`, removed on exit."""
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
        yield Path(tree)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare against")
    parser.add_argument("--reduced", action="store_true", help="the short capture list")
    parser.add_argument("--capture", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.capture:
        return capture_main(Path(args.capture).resolve(), args.reduced)
    if not args.rev:
        parser.error("a revision is required")
    started = time.perf_counter()
    sha = resolve(args.rev)
    if sha is None:
        parser.error(f"not a commit of this repository: {args.rev}")
    # Both sides run from a temporary directory, the working tree's side from
    # a copy without bytecode caches, so the sides differ in the program
    # alone: not in their path's length, not in cached bytecode, and not by
    # edits made to the working tree while the run goes on.
    with exported(sha) as tree, tempfile.TemporaryDirectory() as copy:
        shutil.copytree(ROOT / "src", Path(copy) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        base, new = lockstep(tree / "src", Path(copy) / "src", args.reduced)
    base_digests, new_digests = part_digests(base), part_digests(new)
    differing = differences(base, new)
    print(f"base {sha[:12]} against the working tree of {ROOT}"
          f"{' (reduced capture list)' if args.reduced else ''}; OPENBLAS_NUM_THREADS "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for part in (*PARTS, "overall"):
        count = sum(p == part for p, *_ in new) if part != "overall" else len(new)
        verdict = "equal" if base_digests[part] == new_digests[part] else "DIFFERS"
        print(f"{part:<10} {count:>4} captures  {verdict}")
        print(f"  base {base_digests[part]}\n  new  {new_digests[part]}")
        if part != "overall":
            print(timing(base, new, part))
        names = differing.get(part, [])
        if names:
            print(f"  {len(names)} differing captures:")
            for name in names[:SHOWN]:
                print(f"    {name}")
            if len(names) > SHOWN:
                print(f"    ... and {len(names) - SHOWN} more")
    for side, lines in (("base", base), ("new", new)):
        for part, name, *_ in lines:
            if name.endswith("[raised]"):
                print(f"{side}: {part} capture {name}")
    print(f"took {time.perf_counter() - started:.1f} s")
    return EXIT_DIFFERS if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
