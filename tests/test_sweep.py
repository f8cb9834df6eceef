import math
from dataclasses import replace
from fractions import Fraction

import pytest

from analogybench import (
    ProbConstraint,
    Proposition,
    SearchConfig,
    Side,
    evaluate_schema,
    find_model,
)
from analogybench import scenarios, sweep
from analogybench.scenarios import corpus_dir, load_scenario
from analogybench.sweep import sweep_bridge_prior, sweep_condition_margin

from conftest import exact_satisfied, exact_value

PRIORS = [round(0.05 * i, 12) for i in range(21)]
SEEDS = range(1, 31)


@pytest.fixture(scope="module")
def riemann():
    return load_scenario(corpus_dir() / "riemann_weil.json")


def recorded_sweeps(scenario, values, seeds):
    """Bridge-prior sweeps of scenario at each seed, and every find_model
    call they made as (constraint set, result)."""
    solves = []

    def recording(cs, config):
        result = find_model(cs, config)
        solves.append((cs, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "find_model", recording)
        rows = {
            seed: sweep_bridge_prior(scenario, values, SearchConfig(seed=seed, max_samples=20_000))
            for seed in seeds
        }
    return rows, solves


@pytest.fixture(scope="module")
def prior_grid(riemann):
    """Bridge-prior sweeps over seeds 1-30, with every find_model call recorded."""
    return recorded_sweeps(riemann, PRIORS, SEEDS)


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
            prior = exact_value(pin.lhs, w)
            if pin.rhs.const in (0.0, 1.0):
                # The dead block is exactly zero: the pin holds exactly.
                assert prior == pin.rhs.const
            assert abs(prior - Fraction(pin.rhs.const)) <= 1e-15
            assert exact_satisfied(constraints, w)
        assert found == len(SEEDS) * (len(PRIORS) - 1)


class TestBridgePriorEndpoints:
    # An endpoint row solves the kept constraints and the pin, without the
    # schema conditions. The weak condition on the live branch, (iv) at 0 and
    # (iii) at 1, then reads P(H|E) - P(H), the direct degree.
    @pytest.mark.parametrize("name", ["euler_cauchy", "taylor_series", "volume",
                                      "volume_star"])
    def test_endpoint_models_hold_exactly(self, name):
        scenario = load_scenario(corpus_dir() / f"{name}.json")
        rows, solves = recorded_sweeps(scenario, [0.0, 1.0], range(1, 6))
        assert len(solves) == 2 * 5
        for cs, result in solves:
            assert result.found
            assert exact_satisfied(cs.constraints, result.distribution.weights)
        surviving = {0.0: scenario.labels[3], 1.0: scenario.labels[2]}
        for seed_rows in rows.values():
            for row in seed_rows:
                assert row.status == "ok"
                margin = row.condition_margins[surviving[row.value]]
                assert abs(margin - row.degree) <= 1e-12, (name, row)


def no_solve(*args):
    raise AssertionError("a row was solved")


def with_extra(scenario, constraint):
    """scenario with constraint appended to its extra constraints."""
    return replace(scenario, extra_constraints=scenario.extra_constraints + (constraint,))


class TestBridgePriorRefusals:
    @pytest.mark.parametrize("values,first", [
        ([-0.5, 0.0, 0.5, 1.0, 1.5], "-0.5"),
        ([0.5, 1.0, 1.5, 2.0], "1.5"),
        ([0.5, math.nan], "nan"),
    ])
    def test_prior_outside_the_unit_interval(self, riemann, monkeypatch, values, first):
        monkeypatch.setattr(scenarios, "find_model", no_solve)
        with pytest.raises(ValueError, match=rf"must lie in \[0, 1\], got {first}$"):
            sweep_bridge_prior(riemann, values)

    # The set with P(W) = 0.5 is solvable, but find_model meets that equality
    # by construction and the sweep's pin, which comes after it, only by
    # chance: every row would read infeasible. An unlabelled constraint is
    # named as find-model names it, c<index> in the scenario's set.
    @pytest.mark.parametrize("label,name", [(None, "c11"), ("half_W", "half_W")])
    def test_own_marginal_equality(self, riemann, monkeypatch, label, name):
        w = Proposition.atom(riemann.space, "W")
        pinned = with_extra(riemann, ProbConstraint(
            "equality", Side(target=w), Side(const=0.5), label=label))
        config = SearchConfig(seed=1, max_samples=512)
        assert find_model(pinned.constraint_set(), config).found
        monkeypatch.setattr(scenarios, "find_model", no_solve)
        with pytest.raises(ValueError, match=f"constraint '{name}' is an exact marginal equality"):
            sweep_bridge_prior(pinned, [0.2, 0.8], config)

    # Equalities that are not exact marginal ones on a kept constraint leave
    # the pin first: one on the bridge is dropped for the pin, and one with a
    # margin or a given is an ordinary constraint. Such a sweep is not
    # refused; an exact conditional equality is one the float search may not
    # meet, so its rows may read infeasible.
    @pytest.mark.parametrize("lhs,margin", [("G", 0.0), ("W", 0.01), ("W|R", 0.0)])
    def test_other_equalities_are_swept(self, riemann, lhs, margin):
        target, _, given = lhs.partition("|")
        side = Side(target=Proposition.atom(riemann.space, target),
                    given=Proposition.atom(riemann.space, given) if given else None)
        variant = with_extra(riemann, ProbConstraint("equality", side, Side(const=0.5),
                                                     margin=margin))
        rows = sweep_bridge_prior(variant, [0.0, 1.0], SearchConfig(seed=1, max_samples=512))
        assert [row.value for row in rows] == [0.0, 1.0]
        statuses = [row.status for row in rows]
        assert set(statuses) <= {"ok", "infeasible"} if given else statuses == ["ok", "ok"]


class TestConditionMarginSweep:
    def test_own_margin_matches_a_direct_solve(self, riemann):
        config = SearchConfig(seed=9, max_samples=20_000)
        (row,) = sweep_condition_margin(riemann, "a", [riemann.margins["a"]], config)
        result = find_model(riemann.constraint_set(), config)
        report = evaluate_schema(riemann, result.distribution)
        assert row.status == "ok"
        assert row.condition_margins == {k: c.margin for k, c in report.conditions.items()}
        assert row.degree == report.overall.degree


class TestSweepValues:
    @pytest.mark.parametrize("lo,hi,step", [
        (0.2, 1.0, math.nan),
        (0.2, math.nan, 0.1),
        (0.0, math.inf, 0.1),
        (-math.inf, 1.0, 0.1),
    ])
    def test_non_finite_numbers_rejected(self, lo, hi, step):
        with pytest.raises(ValueError, match="finite"):
            sweep.sweep_values(lo, hi, step)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            sweep.sweep_values(0.9, 0.1, 0.1)

    @pytest.mark.parametrize("lo,hi,step", [
        (1.0, 2.0, 1e-17),  # below the spacing of floats: lo + step == lo
        (0.0, 1.0, 1e-9),
        (0.0, 1.0, 1e-4),  # 10 001 values
    ])
    def test_more_rows_than_the_bound_rejected(self, lo, hi, step):
        with pytest.raises(ValueError, match=f"more than {sweep.MAX_SWEEP_ROWS} rows"):
            sweep.sweep_values(lo, hi, step)

    def test_grid_at_the_bound_kept(self):
        values = sweep.sweep_values(0.0, 0.9999, 1e-4)
        assert len(values) == sweep.MAX_SWEEP_ROWS == 10_000
        assert values[:3] == [0.0, 0.0001, 0.0002] and values[-1] == 0.9999
