from fractions import Fraction

import pytest

from analogybench import SearchConfig, evaluate_schema, find_model
from analogybench import sweep
from analogybench.scenarios import corpus_dir, load_scenario
from analogybench.sweep import sweep_bridge_prior, sweep_condition_margin

from conftest import exact_satisfied, exact_value

PRIORS = [round(0.05 * i, 12) for i in range(1, 20)]
SEEDS = range(1, 31)


@pytest.fixture(scope="module")
def riemann():
    return load_scenario(corpus_dir() / "riemann_weil.json")


@pytest.fixture(scope="module")
def prior_grid(riemann):
    """Bridge-prior sweeps over seeds 1-30, with every find_model call recorded."""
    solves = []

    def recording(cs, config):
        result = find_model(cs, config)
        solves.append((cs, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "find_model", recording)
        rows = {
            seed: sweep_bridge_prior(riemann, PRIORS, SearchConfig(seed=seed, max_samples=20_000))
            for seed in SEEDS
        }
    return rows, solves


class TestBridgePriorSweep:
    def test_rows_near_a_condition_margin_are_ok(self, prior_grid):
        # Solving at slack 1e-3 and then rescaling the bridge blocks to the
        # exact prior broke a condition near its margin on these rows.
        rows, _ = prior_grid
        status = {(seed, row.value): row.status for seed in SEEDS for row in rows[seed]}
        for point in ((7, 0.75), (7, 0.9), (10, 0.9), (26, 0.05)):
            assert status[point] == "ok", point

    def test_only_the_infeasible_prior_reads_infeasible(self, prior_grid):
        # Condition a needs P(R|G) - P(R) > 0.05, but P(R|G) - P(R) =
        # (1 - P(G)) (P(R|G) - P(R|!G)) <= 0.05 at P(G) = 0.95.
        rows, _ = prior_grid
        assert {row.status for seed in SEEDS for row in rows[seed]} == {"ok", "infeasible"}
        for seed in SEEDS:
            bad = [row.value for row in rows[seed] if row.status == "infeasible"]
            assert bad == [0.95], seed

    def test_found_models_hold_exactly(self, prior_grid):
        _, solves = prior_grid
        assert len(solves) == len(SEEDS) * len(PRIORS)
        found = 0
        for cs, result in solves:
            *constraints, pin = cs.constraints
            assert pin.label == "bridge_prior_pin"
            if not result.found:
                continue
            found += 1
            w = result.distribution.weights
            assert abs(exact_value(pin.lhs, w) - Fraction(pin.rhs.const)) <= 1e-15
            assert exact_satisfied(constraints, w)
        assert found == len(SEEDS) * (len(PRIORS) - 1)


class TestConditionMarginSweep:
    def test_own_margin_matches_a_direct_solve(self, riemann):
        config = SearchConfig(seed=9, max_samples=20_000)
        (row,) = sweep_condition_margin(riemann, "a", [riemann.margins["a"]], config)
        result = find_model(riemann.constraint_set(), config)
        report = evaluate_schema(riemann, result.distribution)
        assert row.status == "ok"
        assert row.condition_margins == {k: c.margin for k, c in report.conditions.items()}
        assert row.degree == report.overall.degree
