"""Parameter sweeps over scenarios: forced bridge marginals and condition margins.

A bridge-prior sweep re-solves the scenario with the bridge atom's marginal
pinned to each grid value: the constraint P(bridge) = value at margin 0,
which find_model meets by construction, so every found model has exactly
that prior. At an extremal value the analogy channel is degenerate:
conditions that condition on the dead branch become inapplicable, and at
value 0 the remaining weak condition is enforced at equality, which forces
the direct confirmation degree to zero.

A row reads "infeasible" when find_model found no model within its budget;
that is budget exhaustion, not a proof that the value is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .finder import ConstraintSet, ProbConstraint, SearchConfig, Side, find_model
from .prob import JointDistribution, Proposition
from .scenarios import Scenario, SchemaReport, evaluate_schema


@dataclass(frozen=True)
class SweepRow:
    value: float
    status: str  # "ok" | "infeasible" (no model found within the search budget)
    condition_margins: dict[str, float]  # nan = inapplicable
    degree: float | None
    schema_confirms: bool | None


def sweep_values(lo: float, hi: float, step: float) -> list[float]:
    """Grid lo, lo+step, ... capped at hi; a step larger than the range gives [lo]."""
    if step <= 0:
        raise ValueError("sweep step must be positive")
    values = []
    v = lo
    while v <= hi + 1e-12:
        values.append(round(v, 12))
        v += step
    return values or [lo]


def _bridge_atom(scenario: Scenario) -> str:
    bridge = scenario.roles["bridge"]
    for name in scenario.space.atoms:
        if np.array_equal(bridge.mask, scenario.space.atom_mask(name)):
            return name
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


def _ok_row(value: float, report: SchemaReport) -> SweepRow:
    return SweepRow(
        value=value,
        status="ok",
        condition_margins={k: c.margin for k, c in report.conditions.items()},
        degree=None if report.overall is None else report.overall.degree,
        schema_confirms=report.schema_confirms,
    )


def _solve_row(scenario: Scenario, value: float, cs: ConstraintSet,
               config: SearchConfig) -> SweepRow:
    """The row for one re-solve: the schema report of a found model, or
    "infeasible" when none is found within the budget."""
    result = find_model(cs, config)
    if not result.found:
        return SweepRow(value, "infeasible", {}, None, None)
    return _ok_row(value, evaluate_schema(scenario, result.distribution))


def _degenerate_endpoint(scenario: Scenario, bridge_mask: np.ndarray, value: float) -> SweepRow:
    """Extremal bridge prior: uniform over the live block.

    Uniformity makes hypothesis and evidence independent within the block, so
    the surviving weak condition holds at exact equality and the direct
    confirmation degree is exactly zero.
    """
    live = bridge_mask if value == 1.0 else ~bridge_mask
    weights = live.astype(np.float64)
    dist = JointDistribution.from_unnormalized(scenario.space, weights)
    return _ok_row(value, evaluate_schema(scenario, dist))


def sweep_bridge_prior(
    scenario: Scenario,
    values: list[float],
    config: SearchConfig | None = None,
) -> list[SweepRow]:
    """Re-solve the scenario with the bridge marginal pinned to each value."""
    if scenario.weights is not None:
        raise ValueError("scenario carries fixed weights; nothing to re-solve")
    atom = _bridge_atom(scenario)
    k = scenario.space.index(atom)
    bridge_mask = scenario.space.atom_mask(atom)
    bridge_prop = Proposition.atom(scenario.space, atom)
    base_config = config or SearchConfig(seed=scenario.seed, max_samples=20_000)

    rows = []
    for value in values:
        if value in (0.0, 1.0):
            rows.append(_degenerate_endpoint(scenario, bridge_mask, value))
            continue
        constraints = scenario.condition_constraints()
        constraints += [
            c for c in scenario.extra_constraints if not _constraint_mentions_atom(c, k)
        ]
        constraints.append(ProbConstraint(
            "equality", Side(target=bridge_prop), Side(const=value), label="bridge_prior_pin"
        ))
        cs = ConstraintSet(space=scenario.space, constraints=constraints)
        rows.append(_solve_row(scenario, value, cs, base_config))
    return rows


def sweep_condition_margin(
    scenario: Scenario,
    label: str,
    values: list[float],
    config: SearchConfig | None = None,
) -> list[SweepRow]:
    """Re-solve the scenario with one condition's margin swept over a grid."""
    if scenario.weights is not None:
        raise ValueError("scenario carries fixed weights; nothing to re-solve")
    if label not in scenario.labels:
        raise ValueError(f"unknown condition label {label!r}; have {scenario.labels}")
    cfg = config or SearchConfig(seed=scenario.seed, max_samples=20_000)
    rows = []
    for value in values:
        variant = replace(scenario, margins={**scenario.margins, label: value})
        rows.append(_solve_row(variant, value, variant.constraint_set(), cfg))
    return rows
