"""The benchmark's three workloads and their input generators.

- ``cli``: one ``python -m analogybench.cli`` child process per task, over the
  bundled corpus. Rounds repeat one task list, so every repeat must print
  byte-identical stdout.
- ``solve``: in-process ``find_model`` on planted-feasible constraint sets.
  Its cost is dominated by rare expensive misses, so each round draws fresh
  instances (round r from seed and r) and a run averages over every round it
  completes.
- ``verify``: known-answer checks (exact grid, fuzz harness, miner,
  budget exhaustion on infeasible sets). Rounds repeat one task list.

Every input comes from the benchmark seed; the program only sees the
generated inputs.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from analogybench import (
    ConstraintSet,
    JointDistribution,
    ProbConstraint,
    Proposition,
    SearchConfig,
    Side,
    WorldSpace,
    find_model,
    fuzz_transitivity,
    grid_enumerate,
    mine_naive_transitivity_counterexample,
)
from analogybench.scenarios import load_scenario

import exact
from harness import MISS, ROOT, Task

CORPUS = ROOT / "src" / "analogybench" / "corpus"
CHILD_TIMEOUT_S = 120

#: Documented known answers: fuzz re-verifies at most this many cases through
#: the scalar path, and mined counterexamples hold at these margins.
FUZZ_REVERIFY_CAP = 500
MINER_CONFIRM_MARGIN = 0.01
MINER_DISCONFIRM_MARGIN = 0.001

# Salts keep the workloads' random streams apart for one benchmark seed.
_SALT = {"cli": 11, "solve": 23, "verify": 37, "probe": 41}


@dataclass(frozen=True)
class Sizes:
    """Generator parameters; the defaults are the benchmark's, tests shrink them."""

    solve_atoms: tuple[int, ...] = (4, 5, 6)
    solve_per_cell: int = 10  # instances per (atoms, tier) in one solve round
    slack_frac: tuple[float, float] = (0.5, 0.5)
    tight_frac: tuple[float, float] = (0.8, 0.9)
    min_given_prob: float = 0.05  # planted joint: every conditioning event at least this likely
    min_gap: float = 0.05  # planted joint: every constraint's gap at least this
    solve_budget: int = 100_000  # SearchConfig default
    grid_resolution: int = 10
    fuzz_chunks: int = 4
    fuzz_samples: int = 100_000  # CLI default
    fuzz_margin: float = 1e-6  # CLI default
    miner_tasks: int = 8
    miner_budget: int = 100_000  # CLI default
    infeasible_atoms: tuple[int, ...] = (2, 3, 4, 5, 6)
    infeasible_per_atoms: int = 3  # contradiction families alternate
    infeasible_budget: int = 100_000  # SearchConfig default


def _rng(workload: str, seed: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([_SALT[workload], seed % 2**63, *more])


def _space(atoms: int) -> WorldSpace:
    return WorldSpace(tuple(f"A{i}" for i in range(atoms)))


def _random_prop(space: WorldSpace, rng: np.random.Generator) -> Proposition:
    """Uniform random nonempty, non-total set of worlds."""
    while True:
        mask = rng.integers(0, 2, space.world_count).astype(bool)
        if 0 < mask.sum() < space.world_count:
            return Proposition(space, mask)


def planted_set(rng: np.random.Generator, atoms: int, frac: tuple[float, float],
                sizes: Sizes) -> tuple[ConstraintSet, np.ndarray]:
    """3-4*atoms random cond_gt_cond constraints that a Dirichlet(0.5) joint satisfies.

    Each margin is a fraction (drawn from `frac`) of the constraint's gap
    under the joint, so the joint is a witness and the set is feasible.
    """
    space = _space(atoms)
    joint = rng.dirichlet(np.full(space.world_count, 0.5))
    count = int(rng.integers(3 * atoms, 4 * atoms + 1))
    constraints = []
    while len(constraints) < count:
        t1, g1, t2, g2 = (_random_prop(space, rng) for _ in range(4))
        p1, p2 = joint @ g1.mask, joint @ g2.mask
        if min(p1, p2) < sizes.min_given_prob:
            continue
        gap = joint @ (t1.mask & g1.mask) / p1 - joint @ (t2.mask & g2.mask) / p2
        if abs(gap) < sizes.min_gap:
            continue
        lhs, rhs = Side(target=t1, given=g1), Side(target=t2, given=g2)
        if gap < 0:
            lhs, rhs, gap = rhs, lhs, -gap
        constraints.append(ProbConstraint(
            "cond_gt_cond", lhs, rhs, margin=float(rng.uniform(*frac) * gap),
            label=f"c{len(constraints)}"))
    return ConstraintSet(space, constraints), joint


def infeasible_set(rng: np.random.Generator, atoms: int, family: int) -> ConstraintSet:
    """A contradictory pair plus `atoms` satisfiable filler constraints.

    family 0: P(a) > hi together with P(a) < lo, lo <= hi.
    family 1: P(a|b) > P(a|!b) + m1 together with P(a|!b) > P(a|b) + m2.
    """
    space = _space(atoms)
    a, b = _random_prop(space, rng), _random_prop(space, rng)
    if family == 0:
        hi = float(rng.uniform(0.4, 0.7))
        lo = hi - float(rng.uniform(0.05, 0.3))
        core = [ProbConstraint("prob_gt", Side(target=a), Side(const=hi), label="above"),
                ProbConstraint("prob_lt", Side(target=a), Side(const=lo), label="below")]
    else:
        m1, m2 = (float(x) for x in rng.uniform(0.05, 0.25, 2))
        given, given_not = Side(target=a, given=b), Side(target=a, given=~b)
        core = [ProbConstraint("cond_gt_cond", given, given_not, margin=m1, label="raise"),
                ProbConstraint("cond_gt_cond", given_not, given, margin=m2, label="lower")]
    joint = rng.dirichlet(np.full(space.world_count, 0.5))
    filler = []
    while len(filler) < atoms:
        t, g = _random_prop(space, rng), _random_prop(space, rng)
        if joint @ g.mask > 0:
            value = joint @ (t.mask & g.mask) / (joint @ g.mask)
            filler.append(ProbConstraint("cond_gt_prob", Side(target=t, given=g),
                                         Side(const=float(value) / 2), label=f"f{len(filler)}"))
    return ConstraintSet(space, core + filler)


def _exact_miner_check(dist, x, y, z) -> bool:
    """x confirms y and y confirms z by the miner's margin, x disconfirms z: exactly."""
    cs = ConstraintSet(dist.space, [
        ProbConstraint("cond_gt_prob", Side(target=y, given=x), Side(target=y),
                       margin=MINER_CONFIRM_MARGIN),
        ProbConstraint("cond_gt_prob", Side(target=z, given=y), Side(target=z),
                       margin=MINER_CONFIRM_MARGIN),
        ProbConstraint("prob_lt", Side(target=z, given=x), Side(target=z),
                       margin=MINER_DISCONFIRM_MARGIN),
    ])
    return exact.certify(cs, dist.weights)


class Workload:
    name = ""
    repeats = True  # rounds repeat one task list; otherwise round r draws fresh inputs

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        """Generate inputs and warm up; called several times, timed each time."""
        raise NotImplementedError

    def tasks(self, round_index: int) -> list[Task]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# cli


def _load_json(stdout: bytes):
    return json.loads(stdout.decode())


class CliWorkload(Workload):
    name = "cli"

    def setup(self) -> None:
        files = sorted(CORPUS.glob("*.json")) + sorted((CORPUS / "variants").glob("*.json"))
        self.scenarios = {f.relative_to(ROOT).as_posix(): load_scenario(f) for f in files}
        seeds = iter(int(s) for s in _rng("cli", self.seed).integers(1, 2**31 - 1, 64))
        tasks = []
        for path, sc in self.scenarios.items():
            tasks.append(self._check_task(path, sc, next(seeds)))
        for path, sc in self.scenarios.items():
            tasks.append(self._find_model_task(path, sc, next(seeds)))
        rw = (CORPUS / "riemann_weil.json").relative_to(ROOT).as_posix()
        tasks.append(self._sweep_task(rw, "P(G)", "0:1:0.1", 11, next(seeds)))
        tasks.append(self._sweep_task(rw, "margins.a", "0.01:0.10:0.01", 10, next(seeds)))
        tasks.append(self._fuzz_task(next(seeds)))
        tasks.append(self._counterexample_task(next(seeds)))
        self._tasks = tasks
        if run_cli(["--version"])[0] != 0:
            raise RuntimeError("analogybench.cli --version failed")

    def tasks(self, round_index: int) -> list[Task]:
        return self._tasks

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    @staticmethod
    def _task(task_id: str, span: str, args: list[str], check) -> Task:
        def run(tracer):
            with tracer.span(span, task_id):
                return run_cli(args)
        return Task(task_id, run, check)

    def _check_task(self, path: str, sc, seed: int) -> Task:
        cs = sc.constraint_set()

        def check(out):
            rc, stdout = out
            if rc == 3 and cs is not None:
                return MISS
            if rc != 0:
                return f"exit code {rc}"
            report = _load_json(stdout)
            weights = report["distribution"]["weights"]
            if "schema_report" not in report:
                return "no schema_report"
            if cs is None:
                return None if tuple(weights) == sc.weights else "weights differ from the file"
            if not report["solver"]["found"]:
                return "exit 0 without a model"
            return None if exact.certify(cs, weights) else "model fails the exact check"

        return self._task(f"cli:check:{sc.name}", "cli.check",
                          ["check", path, "--json", "--seed", str(seed)], check)

    def _find_model_task(self, path: str, sc, seed: int) -> Task:
        cs = sc.constraint_set()

        def check(out):
            rc, stdout = out
            if cs is None:
                return None if rc == 2 else f"exit code {rc}, expected 2 (explicit weights)"
            if rc == 3:
                return MISS
            if rc != 0:
                return f"exit code {rc}"
            report = _load_json(stdout)
            if report["found"] is not True:
                return "exit 0 without a model"
            weights = report["distribution"]["weights"]
            return None if exact.certify(cs, weights) else "model fails the exact check"

        return self._task(f"cli:find-model:{sc.name}", "cli.find_model",
                          ["find-model", path, "--json", "--seed", str(seed)], check)

    def _sweep_task(self, path: str, param: str, rng: str, rows: int, seed: int) -> Task:
        def check(out):
            rc, stdout = out
            if rc != 0:
                return f"exit code {rc}"
            lines = stdout.decode().splitlines()
            if not lines or not lines[0].startswith("# analogybench sweep csv"):
                return "missing csv header comment"
            if len(lines) < 2 or not lines[1].startswith("value,status"):
                return "missing csv column header"
            body = [line.split(",") for line in lines[2:]]
            if len(body) != rows:
                return f"{len(body)} rows, expected {rows}"
            if any(cells[1] not in ("ok", "infeasible") for cells in body):
                return "unknown row status"
            return None

        return self._task(f"cli:sweep:{param}", "cli.sweep",
                          ["sweep", path, "--param", param, "--range", rng, "--seed", str(seed)],
                          check)

    def _fuzz_task(self, seed: int) -> Task:
        def check(out):
            rc, stdout = out
            if rc != 0:
                return f"exit code {rc}"
            r = _load_json(stdout)
            if r["violations"] != 0:
                return f"{r['violations']} conclusion violations"
            if r["filtered"] < 1 or r["reverified"] != min(r["filtered"], FUZZ_REVERIFY_CAP):
                return f"reverified {r['reverified']} of {r['filtered']}"
            return None

        return self._task("cli:fuzz-theorem", "cli.fuzz_theorem",
                          ["fuzz-theorem", "--json", "--seed", str(seed)], check)

    def _counterexample_task(self, seed: int) -> Task:
        space = WorldSpace(("A", "B", "C"))
        a, b, c = (Proposition.atom(space, n) for n in space.atoms)

        def check(out):
            rc, stdout = out
            if rc != 0:
                return f"exit code {rc}"
            r = _load_json(stdout)
            if r["verified"] is not True:
                return "counterexample not verified"
            dist = JointDistribution(space, r["distribution"]["weights"])
            ok = _exact_miner_check(dist, a, b, c)
            return None if ok else "counterexample fails the exact check"

        return self._task("cli:counterexample", "cli.counterexample",
                          ["counterexample", "--json", "--seed", str(seed)], check)


def run_python(args: list[str]) -> tuple[int, bytes]:
    """Run one interpreter child from the checkout root with PYTHONPATH=src."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli(args: list[str]) -> tuple[int, bytes]:
    return run_python(["-m", "analogybench.cli", *args])


# ---------------------------------------------------------------------------
# solve


class SolveWorkload(Workload):
    name = "solve"
    repeats = False

    def setup(self) -> None:
        self._round0 = self._make_tasks(0)
        cs, _ = planted_set(_rng("solve", self.seed, 2**32), 4, self.sizes.slack_frac, self.sizes)
        find_model(cs, SearchConfig(seed=1))

    def tasks(self, round_index: int) -> list[Task]:
        return self._round0 if round_index == 0 else self._make_tasks(round_index)

    def _make_tasks(self, round_index: int) -> list[Task]:
        s = self.sizes
        rng = _rng("solve", self.seed, round_index)
        tasks = []
        for atoms in s.solve_atoms:
            for tier, frac in (("slack", s.slack_frac), ("tight", s.tight_frac)):
                for k in range(s.solve_per_cell):
                    cs, _ = planted_set(rng, atoms, frac, s)
                    config = SearchConfig(seed=int(rng.integers(1, 2**31 - 1)),
                                          max_samples=s.solve_budget)
                    tasks.append(self._task(f"solve:r{round_index}:{atoms}{tier}:{k}", cs, config))
        return [tasks[i] for i in rng.permutation(len(tasks))]

    @staticmethod
    def _task(task_id: str, cs: ConstraintSet, config: SearchConfig) -> Task:
        def run(tracer):
            with tracer.span("finder.find_model", task_id):
                result = find_model(cs, config)
            tracer.count("finder.planted")
            tracer.count("finder.found", result.found)
            tracer.count("finder.samples_used", result.samples_used)
            tracer.count("finder.restarts_refined", result.restarts_refined)
            return result

        def check(result):
            if result.found:
                return None if exact.certify(cs, result.distribution.weights) else \
                    "found model fails the exact check"
            if result.samples_used != config.max_samples:
                return f"gave up after {result.samples_used} samples without a model"
            return MISS

        return Task(task_id, run, check)


# ---------------------------------------------------------------------------
# verify


class VerifyWorkload(Workload):
    name = "verify"

    def setup(self) -> None:
        s = self.sizes
        rng = _rng("verify", self.seed)
        grid = []
        for f in sorted(CORPUS.glob("*.json")):
            sc = load_scenario(f)
            if sc.weights is None:
                grid.append(self._grid_task(sc.name, sc.constraint_set()))
        fuzz = [self._fuzz_task(k, int(rng.integers(1, 2**31 - 1))) for k in range(s.fuzz_chunks)]
        miner = [self._miner_task(k, int(rng.integers(1, 2**31 - 1))) for k in range(s.miner_tasks)]
        infeasible = []
        for atoms in s.infeasible_atoms:
            for k in range(s.infeasible_per_atoms):
                cs = infeasible_set(rng, atoms, family=k % 2)
                config = SearchConfig(seed=int(rng.integers(1, 2**31 - 1)),
                                      max_samples=s.infeasible_budget)
                infeasible.append(self._infeasible_task(f"{atoms}:{k}", cs, config))
        # Interleave the kinds so one round mixes long and short tasks evenly.
        groups = [grid, fuzz, miner, infeasible]
        self._tasks = [t for i in range(max(map(len, groups)))
                       for g in groups if i < len(g) for t in [g[i]]]
        warm = infeasible_set(rng, 2, 0)
        grid_enumerate(warm, 2)
        find_model(warm, SearchConfig(seed=1, max_samples=1024))
        fuzz_transitivity(1000, 1, s.fuzz_margin)
        mine_naive_transitivity_counterexample(1, 1000)

    def tasks(self, round_index: int) -> list[Task]:
        return self._tasks

    def _grid_task(self, name: str, cs: ConstraintSet) -> Task:
        res = self.sizes.grid_resolution
        points_total = len(exact.compositions(res, cs.space.world_count))

        def run(tracer):
            with tracer.span("finder.grid_enumerate", name):
                points = grid_enumerate(cs, res)
            tracer.count("finder.grid_points", points_total)
            return points

        def check(points):
            counts = [tuple(int(f * res) for f in p) for p in points]
            if any(f * res != int(f * res) for p in points for f in p):
                return "grid point off the grid"
            expected = exact.grid_solutions(cs, res)
            if len(set(counts)) != len(counts):
                return "duplicate grid points"
            wrong = set(counts) - expected
            if wrong:
                return f"{len(wrong)} grid points fail the exact check"
            if len(counts) != len(expected):
                return f"{len(expected) - len(counts)} satisfying grid points missing"
            return None

        return Task(f"verify:grid:{name}", run, check,
                    fingerprint=lambda points: tuple(tuple(p) for p in points))

    def _fuzz_task(self, k: int, seed: int) -> Task:
        s = self.sizes

        def run(tracer):
            with tracer.span("confirmation.fuzz_transitivity", f"fuzz:{k}"):
                report = fuzz_transitivity(s.fuzz_samples, seed, s.fuzz_margin)
            tracer.count("confirmation.fuzz_samples", report.samples)
            tracer.count("confirmation.fuzz_filtered", report.filtered)
            tracer.count("confirmation.fuzz_violations", report.violations)
            return report

        def check(r):
            if r.samples != s.fuzz_samples:
                return f"{r.samples} samples, asked for {s.fuzz_samples}"
            if r.violations != 0:
                return f"{r.violations} conclusion violations"
            if r.filtered < 1 or r.reverified != min(r.filtered, FUZZ_REVERIFY_CAP):
                return f"reverified {r.reverified} of {r.filtered}"
            return None

        return Task(f"verify:fuzz:{k}", run, check)

    def _miner_task(self, k: int, seed: int) -> Task:
        budget = self.sizes.miner_budget

        def run(tracer):
            with tracer.span("confirmation.mine_counterexample", f"miner:{k}"):
                ce = mine_naive_transitivity_counterexample(seed, budget)
            tracer.count("confirmation.miner_samples", budget)
            return ce

        def check(ce):
            if ce is None:
                return f"no counterexample within {budget} samples"
            if not ce.verify():
                return "counterexample does not verify()"
            if not _exact_miner_check(ce.distribution, ce.x, ce.y, ce.z):
                return "counterexample fails the exact check"
            return None

        def fingerprint(ce):
            return None if ce is None else (ce.samples_used, tuple(ce.distribution.weights))

        return Task(f"verify:miner:{k}", run, check, fingerprint)

    @staticmethod
    def _infeasible_task(label: str, cs: ConstraintSet, config: SearchConfig) -> Task:
        def run(tracer):
            with tracer.span("finder.find_model_exhaust", label):
                result = find_model(cs, config)
            tracer.count("finder.exhaust_samples", result.samples_used)
            return result

        def check(result):
            if result.found:
                return "infeasible set reported found"
            if result.samples_used != config.max_samples:
                return f"stopped after {result.samples_used} of {config.max_samples} samples"
            return None

        def fingerprint(result):
            return (result.found, result.samples_used, result.restarts_refined,
                    repr(result.penalty), tuple(result.distribution.weights))

        return Task(f"verify:infeasible:{label}", run, check, fingerprint)


WORKLOADS = {w.name: w for w in (CliWorkload, SolveWorkload, VerifyWorkload)}
