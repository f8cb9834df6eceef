"""Parameter sweeps over scenarios: forced bridge marginals and condition margins.

Each sweep row re-solves a variant of the scenario through Scenario.solve. A
bridge-prior row adds the pin P(bridge) = value at margin 0 to the
scenario's constraints, in place of those that mention the bridge atom;
find_model meets the pin by construction, so every found model has that
prior within float rounding. A condition-margin row replaces one condition's
margin. The scenario's seed, which `sweep --seed` replaces, seeds each
re-solve. At an extremal prior the analogy channel is degenerate:
conditions (i) and (ii) cannot hold, so an endpoint row solves the kept
constraints and the pin alone, without the schema conditions. Every row
reports each condition as it reads on the solved model, nan where it
conditions on the dead branch. The weak condition on the live branch, (iv)
at 0 and (iii) at 1, then equals P(H|E) - P(H) exactly: at P(B) = 0,
P(H|!B&E) = P(H|E) and P(H|!B) = P(H), and at P(B) = 1 the same holds with
B in place of !B.

A row reads "infeasible" when find_model found no model within its budget;
that is budget exhaustion, not a proof that the value is infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .finder import ProbConstraint, SearchConfig, Side, _marginal_pin, _names
from .scenarios import Scenario, evaluate_schema

#: Sample budget of each sweep row's re-solve, unless a config is passed.
SWEEP_MAX_SAMPLES = 20_000

#: Most values sweep_values returns: each row is a re-solve, so a grid past
#: this (or a step below the spacing of floats, which never reaches hi) is
#: refused before any row runs.
MAX_SWEEP_ROWS = 10_000


@dataclass(frozen=True)
class SweepRow:
    value: float
    status: str  # "ok" (the row's constraint set solved) | "infeasible" (not within budget)
    condition_margins: dict[str, float]  # nan = inapplicable
    degree: float | None


def sweep_values(lo: float, hi: float, step: float) -> list[float]:
    """Grid lo, lo+step, ... capped at hi; a step larger than the range gives [lo].

    Raises ValueError for a non-finite or reversed range, a step that is not
    positive, and a grid of more than MAX_SWEEP_ROWS values.
    """
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError("sweep range bounds and step must be finite numbers")
    if step <= 0:
        raise ValueError("sweep step must be positive")
    if lo > hi:
        raise ValueError(f"sweep range is reversed: lo {lo} > hi {hi}")
    values = []
    v = lo
    while v <= hi + 1e-12:
        if len(values) == MAX_SWEEP_ROWS:
            raise ValueError(f"sweep range {lo}:{hi}:{step} has more than "
                             f"{MAX_SWEEP_ROWS} rows; use a larger step")
        values.append(round(v, 12))
        v += step
    return values


def _bridge_index(scenario: Scenario) -> int:
    """The index of the atom that the bridge role denotes."""
    bridge = scenario.roles["bridge"]
    for k, name in enumerate(scenario.space.atoms):
        if np.array_equal(bridge.mask, scenario.space.atom_mask(name)):
            return k
    raise ValueError("bridge-prior sweeps need the bridge role to be a single atom")


def _depends_on(mask: np.ndarray, k: int) -> bool:
    """Whether a proposition's truth value depends on atom k."""
    idx = np.arange(mask.shape[0])
    return bool(np.any(mask[idx] != mask[idx ^ (1 << k)]))


def _constraint_mentions_atom(c: ProbConstraint, k: int) -> bool:
    for side in (c.lhs, c.rhs):
        for prop in (side.target, side.given):
            if prop is not None and _depends_on(prop.mask, k):
                return True
    return False


def _solve_row(variant: Scenario, value: float, config: SearchConfig) -> SweepRow:
    """The row for one re-solve: the schema report of a found model, or
    "infeasible" when none is found within the budget."""
    dist, result = variant.solve(config)
    if not result.found:
        return SweepRow(value, "infeasible", {}, None)
    report = evaluate_schema(variant, dist)
    return SweepRow(
        value=value,
        status="ok",
        condition_margins={k: c.margin for k, c in report.conditions.items()},
        degree=None if report.overall is None else report.overall.degree,
    )


def _search_config(scenario: Scenario, config: SearchConfig | None) -> SearchConfig:
    """config, or the scenario's seed at the sweep budget; a scenario with
    fixed weights has nothing to re-solve."""
    if scenario.weights is not None:
        raise ValueError("scenario carries fixed weights; nothing to re-solve")
    return config or SearchConfig(seed=scenario.seed, max_samples=SWEEP_MAX_SAMPLES)


def sweep_bridge_prior(
    scenario: Scenario,
    values: list[float],
    config: SearchConfig | None = None,
) -> list[SweepRow]:
    """Re-solve the scenario with the bridge marginal pinned to each value.

    At a value of 0 or 1 the variant enforces no schema condition, only the
    kept constraints and the pin.

    Raises ValueError before any row is solved for a value outside [0, 1],
    and for a scenario that keeps an exact marginal equality of its own:
    find_model meets only the first such equality by construction, and the
    pin comes after every kept constraint, so a search would meet the pin
    only by chance and every row would read infeasible.
    """
    config = _search_config(scenario, config)
    outside = [v for v in values if not 0.0 <= v <= 1.0]
    if outside:
        raise ValueError(f"a bridge prior must lie in [0, 1], got {outside[0]!r}")
    k = _bridge_index(scenario)
    constraints = scenario.constraint_set().constraints
    for name, c in zip(_names(constraints), constraints):
        if not _constraint_mentions_atom(c, k) and _marginal_pin([c]) is not None:
            raise ValueError(
                f"constraint {name!r} is an exact marginal equality, which the search "
                "meets in place of the bridge-prior pin; this scenario cannot be prior-swept")
    bridge = scenario.roles["bridge"]
    kept = tuple(c for c in scenario.extra_constraints if not _constraint_mentions_atom(c, k))
    rows = []
    for value in values:
        margins = {} if value in (0.0, 1.0) else scenario.margins
        pin = ProbConstraint("equality", Side(target=bridge), Side(const=value),
                             label="bridge_prior_pin")
        variant = replace(scenario, margins=margins, extra_constraints=kept + (pin,))
        rows.append(_solve_row(variant, value, config))
    return rows


def sweep_condition_margin(
    scenario: Scenario,
    label: str,
    values: list[float],
    config: SearchConfig | None = None,
) -> list[SweepRow]:
    """Re-solve the scenario with one condition's margin swept over a grid."""
    config = _search_config(scenario, config)
    if label not in scenario.labels:
        raise ValueError(f"unknown condition label {label!r}; have {scenario.labels}")
    return [
        _solve_row(replace(scenario, margins={**scenario.margins, label: value}), value, config)
        for value in values
    ]
