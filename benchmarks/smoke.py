"""Smoke test of the benchmark harness at tiny sizes.

    python3 benchmarks/smoke.py

Checks that the exact checker rejects known-wrong models (a failed task, not
a crash), that every workload runs and checks its outputs, that a traced run
yields every per-layer metric of BENCHMARK.json, and that compare mode flags
a change beyond a bound. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from analogybench import (  # noqa: E402
    ConstraintSet,
    JointDistribution,
    ProbConstraint,
    Proposition,
    SearchConfig,
    Side,
    WorldSpace,
)

import exact  # noqa: E402
import run  # noqa: E402
from harness import Checker, RoundResult, Tally, Tracer  # noqa: E402
from workloads import WORKLOADS, Sizes, SolveWorkload, planted_set  # noqa: E402

TINY = replace(
    Sizes(),
    solve_atoms=(4,), solve_per_cell=1, grid_resolution=3, fuzz_chunks=1,
    fuzz_samples=5000, miner_tasks=1, miner_budget=5000, infeasible_atoms=(2,),
    infeasible_per_atoms=1, infeasible_budget=2048,
)


def check_exact_checker() -> None:
    space = WorldSpace(("A", "B"))
    a, b = Proposition.atom(space, "A"), Proposition.atom(space, "B")
    at_half = [0.25, 0.25, 0.25, 0.25]  # P(A) = 1/2 exactly, P(A|B) = P(A|!B)

    def cs(kind, lhs, rhs, margin=0.0):
        return ConstraintSet(space, [ProbConstraint(kind, lhs, rhs, margin=margin)])

    assert not exact.certify(cs("prob_gt", Side(target=a), Side(const=0.5)), at_half), \
        "strict > accepted at its boundary"
    assert exact.certify(cs("prob_gt", Side(target=a), Side(const=0.5)), [0.2, 0.3, 0.2, 0.3])
    assert not exact.certify(cs("prob_lt", Side(target=a), Side(const=0.5)), at_half)
    assert exact.certify(cs("cond_ge_cond", Side(target=a, given=b), Side(target=a, given=~b)),
                         at_half), "weak >= rejected at equality"
    assert not exact.certify(cs("cond_gt_cond", Side(target=a, given=b),
                                Side(target=a, given=~b)), at_half)
    assert exact.certify(cs("equality", Side(target=a), Side(const=0.6), 0.1), at_half)
    assert not exact.certify(cs("equality", Side(target=a), Side(const=0.7), 0.1), at_half)
    never = Proposition.contradiction(space)
    assert not exact.certify(cs("cond_gt_prob", Side(target=a, given=never), Side(const=0.0)),
                             at_half), "undefined conditional accepted"
    # Renormalisation: scaling the weights changes no verdict.
    assert exact.certify(cs("prob_gt", Side(target=a), Side(const=0.5)), [2.0, 3.0, 2.0, 3.0])
    print("PASS exact checker: strict, weak, equality, undefined, renormalised")


def check_wrong_model_fails_task() -> None:
    rng = np.random.default_rng(7)
    planted, _ = planted_set(rng, 4, TINY.tight_frac, TINY)
    config = SearchConfig(seed=1)
    task = SolveWorkload._task("smoke:wrong", planted, config)
    space = planted.space
    # Uniform weights make every conditional equal, so no strict constraint holds.
    wrong = SimpleNamespace(found=True, samples_used=512,
                            distribution=JointDistribution.uniform(space))
    tally = Tally()
    Checker(tally).check([task], RoundResult(0.0, [0.0], [wrong]), Tracer(False))
    assert tally.failed == 1 and "exact check" in tally.failures[0], tally.failures
    print("PASS known-wrong model counts as a failed task")


def check_workloads() -> None:
    for name, cls in WORKLOADS.items():
        tally, metrics, info = run.run_untraced(cls(3, TINY), seconds=0.0, min_tasks=1)
        assert tally.failed == 0, (name, tally.failures)
        assert set(metrics) == {m["name"] for m in _spec()["end_to_end"]}, sorted(metrics)
        print(f"PASS {name}: {info['tasks']} tasks, all outputs checked")


def check_traced() -> None:
    tally, metrics, tracer = run.run_traced("solve", 3, TINY)
    assert tally.failed == 0, tally.failures
    missing = {m["name"] for m in _spec()["per_layer"]} - set(metrics)
    assert not missing, f"traced run lacks {sorted(missing)}"
    assert all(s.end >= s.start for s in tracer.spans)
    print(f"PASS traced run: {len(metrics)} per-layer metrics from {len(tracer.spans)} spans")


def check_compare() -> None:
    def record(value):
        return {"workload": "solve", "result": {"metrics": {
            "wall_s": {"value": value, "unit": "s"}}}}

    with tempfile.TemporaryDirectory() as tmp:
        base, new = Path(tmp, "base.jsonl"), Path(tmp, "new.jsonl")
        base.write_text(json.dumps(record(1.0)) + "\n")
        new.write_text(json.dumps(record(1.0)) + "\n")
        assert run.compare(str(base), str(new)) == 0
        new.write_text(json.dumps(record(2.0)) + "\n")
        assert run.compare(str(base), str(new)) == 1, "doubled wall_s not flagged"
    print("PASS compare flags a change beyond the bound")


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    check_exact_checker()
    check_wrong_model_fails_task()
    check_workloads()
    check_traced()
    check_compare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
