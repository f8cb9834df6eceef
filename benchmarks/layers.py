"""Per-layer metrics from the traced run.

The traced run records spans from the benchmark's own code around every call
into a layer (nothing is traced inside ``src/``). It runs one traced round of
each workload's task list, whatever workload was named, plus fixed probes of
the public calls that no round times alone, so every per-layer metric exists
in every traced run and its counts repeat exactly for a seed.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from analogybench import (
    JointDistribution,
    Proposition,
    SearchConfig,
    WorldSpace,
    check_transitivity,
    conditional,
    evaluate_schema,
    formula,
    penalty,
)
from analogybench.finder import is_satisfied
from analogybench.scenarios import load_scenario
from analogybench.sweep import sweep_bridge_prior, sweep_condition_margin, sweep_values

from harness import Tracer, metric
from workloads import CORPUS, Sizes, _rng, planted_set, run_python

PROBE_REPEATS = 5
CHILD_REPEATS = 5

#: Layers whose self time is reported; ``harness`` is the benchmark's own work.
LAYERS = ("cli", "scenarios", "sweep", "formula", "prob", "confirmation", "finder", "harness")

CLI_SUBCOMMANDS = ("check", "find_model", "sweep", "fuzz_theorem", "counterexample")


def _per_call(tracer: Tracer, name: str, fn, calls: int) -> float:
    """Median over PROBE_REPEATS spans of the time per call, in seconds."""
    for _ in range(PROBE_REPEATS):
        with tracer.span(name):
            for _ in range(calls):
                fn()
    return median(tracer.durations(name)) / calls


def random_formula(rng: np.random.Generator, atoms: tuple[str, ...], depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(atoms))
    op = rng.integers(3)
    if op == 0:
        return "!" + random_formula(rng, atoms, depth - 1)
    joiner = " & " if op == 1 else " | "
    return ("(" + random_formula(rng, atoms, depth - 1) + joiner
            + random_formula(rng, atoms, depth - 1) + ")")


def probe(seed: int, tracer: Tracer, sizes: Sizes) -> dict[str, dict]:
    """Time the public calls of each layer on inputs drawn from the seed."""
    rng = _rng("probe", seed)
    out: dict[str, dict] = {}

    for _ in range(CHILD_REPEATS):
        with tracer.span("cli.python_start"):
            run_python(["-c", "pass"])
        with tracer.span("cli.import"):
            run_python(["-c", "import analogybench.cli"])
    start = median(tracer.durations("cli.python_start"))
    out["cli.python_start_ms"] = metric(start * 1e3, "ms")
    out["cli.import_ms"] = metric((median(tracer.durations("cli.import")) - start) * 1e3, "ms")

    files = sorted(CORPUS.glob("*.json")) + sorted((CORPUS / "variants").glob("*.json"))
    for _ in range(PROBE_REPEATS):
        for f in files:
            with tracer.span("scenarios.load_scenario"):
                load_scenario(f)
    out["scenarios.load_ms"] = metric(median(tracer.durations("scenarios.load_scenario")) * 1e3,
                                      "ms")

    scenarios = [load_scenario(f) for f in files]
    solved = [(sc, sc.solve(SearchConfig(seed=int(rng.integers(1, 2**31 - 1)))
                            if sc.weights is None else None)[0]) for sc in scenarios]
    each = _per_call(tracer, "scenarios.evaluate_schema",
                     lambda: [evaluate_schema(sc, d) for sc, d in solved], 4)
    out["scenarios.evaluate_schema_us"] = metric(each / len(solved) * 1e6, "us")

    texts = [random_formula(rng, ("A", "B", "C", "D"), 4) for _ in range(50)]
    each = _per_call(tracer, "formula.parse", lambda: [formula.parse(t) for t in texts], 4)
    out["formula.parse_us"] = metric(each / len(texts) * 1e6, "us")

    rw = load_scenario(CORPUS / "riemann_weil.json")
    sweep_seed = int(rng.integers(1, 2**31 - 1))
    for _ in range(3):
        with tracer.span("sweep.sweep_bridge_prior"):
            sweep_bridge_prior(rw, sweep_values(0.0, 1.0, 0.1), SearchConfig(seed=sweep_seed))
        with tracer.span("sweep.sweep_condition_margin"):
            sweep_condition_margin(rw, "a", sweep_values(0.01, 0.10, 0.01),
                                   SearchConfig(seed=sweep_seed))
    out["sweep.bridge_prior_ms"] = metric(median(tracer.durations("sweep.sweep_bridge_prior"))
                                          * 1e3, "ms")
    out["sweep.condition_margin_ms"] = metric(
        median(tracer.durations("sweep.sweep_condition_margin")) * 1e3, "ms")

    rw_cs = rw.constraint_set()
    rw_dist = JointDistribution.from_unnormalized(rw.space, rng.dirichlet(np.ones(8)))
    cs6, joint6 = planted_set(rng, 6, sizes.tight_frac, sizes)
    dist6 = JointDistribution.from_unnormalized(cs6.space, joint6)
    out["finder.penalty_us_3atoms"] = metric(
        _per_call(tracer, "finder.penalty_3", lambda: penalty(rw_dist, rw_cs), 200) * 1e6, "us")
    out["finder.penalty_us_6atoms"] = metric(
        _per_call(tracer, "finder.penalty_6", lambda: penalty(dist6, cs6), 100) * 1e6, "us")
    out["finder.is_satisfied_us"] = metric(
        _per_call(tracer, "finder.is_satisfied", lambda: is_satisfied(dist6, cs6), 100) * 1e6,
        "us")

    space = WorldSpace(("X", "Y", "Z"))
    x, y, z = (Proposition.atom(space, a) for a in space.atoms)
    dists = [JointDistribution.from_unnormalized(space, rng.dirichlet(np.ones(8)))
             for _ in range(20)]
    each = _per_call(tracer, "confirmation.check_transitivity",
                     lambda: [check_transitivity(d, x, y, z) for d in dists], 5)
    out["confirmation.check_transitivity_us"] = metric(each / len(dists) * 1e6, "us")
    each = _per_call(tracer, "prob.conditional",
                     lambda: [conditional(d, z, x & y) for d in dists], 20)
    out["prob.conditional_us"] = metric(each / len(dists) * 1e6, "us")
    return out


def round_metrics(tracer: Tracer) -> dict[str, dict]:
    """Metrics read from the spans and counters of one traced round per workload."""
    c = tracer.counters
    out: dict[str, dict] = {}
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = metric(median(tracer.durations(f"cli.{sub}")) * 1e3, "ms")

    solves = tracer.durations("finder.find_model")
    out["finder.find_model_ms_p50"] = metric(np.percentile(solves, 50) * 1e3, "ms")
    out["finder.find_model_ms_p90"] = metric(np.percentile(solves, 90) * 1e3, "ms")
    out["finder.samples_used"] = metric(c["finder.samples_used"], "count")
    out["finder.restarts_refined"] = metric(c["finder.restarts_refined"], "count")
    out["finder.samples_per_found"] = metric(
        c["finder.samples_used"] / max(c["finder.found"], 1), "count")
    out["finder.hit_frac"] = metric(c["finder.found"] / c["finder.planted"], "fraction")
    out["finder.exhaust_samples_per_s"] = metric(
        c["finder.exhaust_samples"] / sum(tracer.durations("finder.find_model_exhaust")), "1/s")

    grids = tracer.durations("finder.grid_enumerate")
    out["finder.grid_ms"] = metric(median(grids) * 1e3, "ms")
    out["finder.grid_points_per_s"] = metric(c["finder.grid_points"] / sum(grids), "1/s")

    out["confirmation.fuzz_samples_per_s"] = metric(
        c["confirmation.fuzz_samples"] / sum(tracer.durations("confirmation.fuzz_transitivity")),
        "1/s")
    out["confirmation.miner_samples_per_s"] = metric(
        c["confirmation.miner_samples"]
        / sum(tracer.durations("confirmation.mine_counterexample")), "1/s")
    out["confirmation.fuzz_filtered"] = metric(c["confirmation.fuzz_filtered"], "count")
    out["confirmation.fuzz_violations"] = metric(c["confirmation.fuzz_violations"], "count")
    return out


def self_time_metrics(tracer: Tracer) -> dict[str, dict]:
    busy = tracer.self_times()
    return {f"{layer}.self_s": metric(busy.get(layer, 0.0), "s") for layer in LAYERS}
