"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line so the suite output doubles as an
acceptance report. Numbers pinned here (sample sizes, margins, tolerances)
are the product's advertised guarantees, not incidental test choices.
"""

import json
import math
import time

import numpy as np
import pytest

from analogybench import (
    JointDistribution,
    Proposition,
    WorldSpace,
    check_transitivity,
    conditional,
    euler_characteristic,
    evaluate_schema,
    find_model,
    fuzz_transitivity,
    grid_enumerate,
    mine_naive_transitivity_counterexample,
    probability,
    symmetry_baseline,
)
from analogybench.cli import main
from analogybench.finder import SearchConfig, is_satisfied, penalty
from analogybench.prob import entails
from analogybench.scenarios import PLATONIC_SOLIDS, corpus_dir, load_corpus
from analogybench.sweep import sweep_bridge_prior


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {title}: {state}{suffix}")
    assert ok, f"acceptance {number:02d} {title}{suffix}"


def _corpus_by_name():
    return {s.name: s for s in load_corpus()}


def _solved_report(scenario):
    """evaluate_schema on the scenario's own solve."""
    return evaluate_schema(scenario, scenario.solve()[0])


def test_01_theorem_fuzz():
    started = time.perf_counter()
    report = fuzz_transitivity(samples=100_000, seed=1, margin=1e-6)
    elapsed = time.perf_counter() - started
    ok = (report.filtered > 100 and report.violations == 0
          and report.reverified == min(report.filtered, 500) and elapsed <= 30.0)
    _report(
        1,
        "transitivity fuzz, 1e5 samples",
        ok,
        f"filtered={report.filtered} violations={report.violations} "
        f"reverified={report.reverified} elapsed={elapsed:.1f}s",
    )


def test_02_corollary_fuzz():
    # Y's extension is a strict subset of Z's (Y = y & z, Z = z), so only the
    # strict cross-correlation condition and the weak no-undermining condition
    # are needed for the conclusion.
    space = WorldSpace(("x", "y", "z"))
    x = Proposition.atom(space, "x")
    z = Proposition.atom(space, "z")
    y = Proposition.atom(space, "y") & z
    assert entails(y, z) and y.extension < z.extension

    x_m = x.mask.astype(float)
    y_m = y.mask.astype(float)
    z_m = z.mask.astype(float)
    ny_m = 1.0 - y_m
    rng = np.random.default_rng(2)
    samples = 10_000
    raw = rng.standard_exponential((samples, 8))
    w = raw / raw.sum(axis=1, keepdims=True)
    p_y = w @ y_m
    p_ny = w @ ny_m
    p_x = w @ x_m
    p_xny = w @ (x_m * ny_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_ii = (w @ (x_m * y_m)) / p_y - p_xny / p_ny
        cond_iv = (w @ (z_m * x_m * ny_m)) / p_xny - (w @ (z_m * ny_m)) / p_ny
        concl = (w @ (z_m * x_m)) / p_x - (w @ z_m)
        defined = (p_y > 0) & (p_ny > 0) & (p_x > 0) & (p_xny > 0)
        antecedent = defined & (cond_ii > 1e-6) & (cond_iv >= 0)
    filtered = int(np.count_nonzero(antecedent))
    violations = int(np.count_nonzero(concl[antecedent] <= 0.0))
    ok = filtered > 0 and violations == 0
    _report(
        2,
        "entailing-case corollary fuzz, 1e4 samples",
        ok,
        f"filtered={filtered} violations={violations}",
    )


def test_03_counterexample_mining():
    started = time.perf_counter()
    ce = mine_naive_transitivity_counterexample(seed=1, budget=100_000)
    elapsed = time.perf_counter() - started
    ok = ce is not None and elapsed <= 10.0
    detail = f"elapsed={elapsed:.1f}s"
    if ce is not None:
        d = ce.distribution
        gaps = (
            conditional(d, ce.y, ce.x) - probability(d, ce.y),
            conditional(d, ce.z, ce.y) - probability(d, ce.z),
            conditional(d, ce.z, ce.x) - probability(d, ce.z),
        )
        trans = check_transitivity(d, ce.x, ce.y, ce.z)
        failing = [k for k, c in trans.conditions.items() if not c.holds]
        ok = (
            ok
            and ce.verify()
            and gaps[0] > 0.01
            and gaps[1] > 0.01
            and gaps[2] < -0.001
            and len(failing) >= 1
        )
        detail += f" samples={ce.samples_used} failing={','.join(failing)}"
    _report(3, "naive-transitivity counterexample mined and verified", ok, detail)


def test_04_riemann_weil_scenario():
    scenario = _corpus_by_name()["riemann_weil"]
    dist, result = scenario.solve()
    solved = result is not None and result.found and result.samples_used <= 100_000
    report = evaluate_schema(scenario, dist)
    degree = report.overall.degree if report.overall else float("nan")
    # At a bridge prior of 0 conditions a-c condition on the dead branch, and
    # d reads P(H|E) - P(H), the direct degree.
    endpoint = sweep_bridge_prior(scenario, [0.0])[0]
    margins = endpoint.condition_margins
    pinned = (
        endpoint.status == "ok"
        and all(math.isnan(margins[label]) for label in "abc")
        and abs(margins["d"] - endpoint.degree) <= 1e-12
    )
    ok = solved and report.schema_confirms is True and degree >= 0.01 and pinned
    _report(
        4,
        "strong analogy scenario solves and confirms",
        ok,
        f"degree={degree:.4f} endpoint_degree={endpoint.degree!r}",
    )


def test_05_dual_argument_contrast():
    by_name = _corpus_by_name()
    forward = _solved_report(by_name["euler_cauchy"])
    reversed_variant = _solved_report(by_name["euler_polya"])
    rev_degree = (
        reversed_variant.overall.degree if reversed_variant.overall else float("nan")
    )
    ok = (
        forward.schema_confirms is True
        and reversed_variant.schema_confirms is None
        and not reversed_variant.conditions["n"].holds
        and rev_degree <= 0.01
    )
    _report(
        5,
        "dual-argument asymmetry reproduced",
        ok,
        f"forward_confirms={forward.schema_confirms} reversed_degree={rev_degree:.4f}",
    )


def test_06_baseline_contrast():
    by_name = _corpus_by_name()
    strong, weak = by_name["volume"], by_name["volume_star"]
    base_strong = symmetry_baseline(**strong.baseline)
    base_weak = symmetry_baseline(**weak.baseline)
    strong_report = _solved_report(strong)
    weak_report = _solved_report(weak)
    ok = (
        base_strong == base_weak
        and strong_report.schema_confirms is True
        and strong_report.overall.confirms
        and weak_report.schema_confirms is not True
        and not weak_report.overall.confirms
    )
    _report(
        6,
        "symmetry baseline blind where schema discriminates",
        ok,
        f"baseline={base_strong} strong={strong_report.schema_confirms} "
        f"weak={weak_report.schema_confirms}",
    )


def test_07_oracle_agreement():
    checked = 0
    agree = True
    exact_ok = True
    for scenario in load_corpus():
        cs = scenario.constraint_set()
        if cs is None or scenario.space.world_count > 8:
            continue
        checked += 1
        grid = grid_enumerate(cs, resolution=10)
        result = find_model(cs, SearchConfig(seed=scenario.seed))
        if bool(grid) != result.found:
            agree = False
        for point in grid:
            dist = JointDistribution(scenario.space, [float(f) for f in point])
            # float re-evaluation of an exact-rational model: weak conditions
            # may sit exactly on their boundary, so penalty is only near-zero
            if penalty(dist, cs) > 1e-24 or not is_satisfied(dist, cs):
                exact_ok = False
        if result.found and not is_satisfied(result.distribution, cs):
            exact_ok = False
    ok = checked > 0 and agree and exact_ok
    _report(
        7,
        "grid oracle and model finder agree on corpus",
        ok,
        f"constraint_sets_checked={checked}",
    )


def test_08_probability_core_properties():
    space = WorldSpace(("x", "y", "z"))
    x = Proposition.atom(space, "x")
    y = Proposition.atom(space, "y")
    rng = np.random.default_rng(4)
    samples = 10_000
    raw = rng.standard_exponential((samples, 8))
    w = raw / raw.sum(axis=1, keepdims=True)
    x_m = x.mask.astype(float)
    y_m = y.mask.astype(float)
    disjoint_m = y_m * (1.0 - x_m)

    normalization = np.abs(w.sum(axis=1) - 1.0)
    additivity = np.abs((w @ (x_m + disjoint_m)) - (w @ x_m) - (w @ disjoint_m))
    p_x = w @ x_m
    p_y = w @ y_m
    p_xy = w @ (x_m * y_m)
    rel_xy = p_xy / p_y - p_x
    rel_yx = p_xy / p_x - p_y
    # relevance is symmetric in sign away from independence
    material = (np.abs(rel_xy) > 1e-9) & (np.abs(rel_yx) > 1e-9)
    symmetry_ok = np.all(np.sign(rel_xy[material]) == np.sign(rel_yx[material]))
    total = p_xy / p_y * p_y + (w @ (x_m * (1 - y_m))) / (1 - p_y) * (1 - p_y)
    total_prob = np.abs(total - p_x)
    monotonic = (p_xy <= p_x + 1e-12) & (p_x <= w @ np.maximum(x_m, y_m) + 1e-12)

    ok = (
        bool(np.all(normalization <= 1e-12))
        and bool(np.all(additivity <= 1e-12))
        and bool(symmetry_ok)
        and bool(np.all(total_prob <= 1e-10))
        and bool(np.all(monotonic))
    )
    _report(8, "probability-core invariants over 1e4 distributions", ok)


def test_09_euler_characteristic():
    values = {
        name: euler_characteristic(v, e, f)
        for name, (v, e, f) in PLATONIC_SOLIDS.items()
    }
    ok = len(values) == 5 and all(chi == 2 for chi in values.values())
    _report(9, "alternating count is 2 for all five regular solids", ok)


def test_10_reproducibility(capsys):
    riemann = str(corpus_dir() / "riemann_weil.json")
    outputs = []
    for command in (
        ["check", riemann, "--json", "--seed", "1"],
        ["find-model", riemann, "--json", "--seed", "1"],
    ):
        runs = []
        for _ in range(2):
            assert main(command) == 0
            runs.append(capsys.readouterr().out)
        outputs.append(runs[0] == runs[1] and json.loads(runs[0]) is not None)
    ok = all(outputs)
    _report(10, "seeded corpus commands emit byte-identical JSON", ok)
