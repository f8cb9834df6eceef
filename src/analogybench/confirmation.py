"""Bayesian confirmation verdicts and the transitivity-of-confirmation checker.

Confirmation is incremental: evidence E confirms hypothesis H when
P(H|E) > P(H). Confirmation is not transitive in general; the checker here
evaluates a sufficient condition set for transitivity over a chain X -> Y -> Z:

    (i)   P(Z|Y)      > P(Z)
    (ii)  P(X|Y)      > P(X|!Y)
    (iii) P(Z|X & Y)  >= P(Z|Y)
    (iv)  P(Z|X & !Y) >= P(Z|!Y)
    =>    P(Z|X)      > P(Z)

In the limiting case in which Y entails Z, (ii) and (iv) alone suffice.
The counterexample miner searches for naive-transitivity failures:
X confirms Y, Y confirms Z, yet X disconfirms Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .finder import (
    BOUNDARY_TOLERANCE,
    LOOKAHEAD_VALUES,
    CompiledConstraints,
    ProbConstraint,
    Side,
    _holds,
    sample_blocks,
)
from .prob import (
    JointDistribution,
    Proposition,
    UndefinedConditionalError,
    WorldSpace,
    conditional,
    entails,
    probability,
)

#: Margins at which mined counterexamples must hold, so that they survive
#: independent re-computation comfortably clear of float noise.
MINER_CONFIRM_MARGIN = 0.01
MINER_DISCONFIRM_MARGIN = 0.001

#: Rows in the miner's first sample block; later blocks double.
MINER_FIRST_BLOCK = 512

#: Most filtered fuzz cases re-checked through check_transitivity.
FUZZ_REVERIFY_CAP = 500


@dataclass(frozen=True)
class ConfirmationVerdict:
    confirms: bool
    degree: float  # difference measure P(h|e) - P(h)
    measure_values: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ConditionResult:
    holds: bool
    margin: float  # nan when inapplicable
    applicable: bool = True
    at_boundary: bool = False  # |margin| within BOUNDARY_TOLERANCE of exact equality


_INAPPLICABLE = ConditionResult(holds=False, margin=float("nan"), applicable=False)


@dataclass(frozen=True)
class TransitivityReport:
    cond_i: ConditionResult
    cond_ii: ConditionResult
    cond_iii: ConditionResult
    cond_iv: ConditionResult
    conclusion: ConditionResult
    corollary_mode: bool = False

    @property
    def antecedent_holds(self) -> bool:
        if self.corollary_mode:
            return self.cond_ii.holds and self.cond_iv.holds
        return (
            self.cond_i.holds
            and self.cond_ii.holds
            and self.cond_iii.holds
            and self.cond_iv.holds
        )

    @property
    def conditions(self) -> dict[str, ConditionResult]:
        return {
            "i": self.cond_i,
            "ii": self.cond_ii,
            "iii": self.cond_iii,
            "iv": self.cond_iv,
        }


def confirm(
    dist: JointDistribution,
    evidence: Proposition,
    hypothesis: Proposition,
    margin: float = 0.0,
) -> ConfirmationVerdict:
    """Judge whether evidence confirms hypothesis, with named measures.

    Raises UndefinedConditionalError when the evidence has zero probability.
    """
    posterior = conditional(dist, hypothesis, evidence)
    prior = probability(dist, hypothesis)
    degree = posterior - prior
    measures: dict[str, float] = {"difference": degree}
    if prior > 0.0:
        measures["ratio"] = posterior / prior
    # log-likelihood measure log[P(e|h) / P(e|!h)], when both sides are defined
    try:
        like = conditional(dist, evidence, hypothesis)
        unlike = conditional(dist, evidence, ~hypothesis)
        if like > 0.0 and unlike > 0.0:
            measures["log_likelihood"] = math.log(like / unlike)
    except UndefinedConditionalError:
        pass
    return ConfirmationVerdict(confirms=degree > margin, degree=degree, measure_values=measures)


def transitivity_sides(
    x: Proposition, y: Proposition, z: Proposition
) -> list[tuple[str, Side, Side]]:
    """Conditions (i)-(iv) and the conclusion over x -> y -> z as (kind, lhs, rhs)."""
    not_y = ~y
    return [
        ("cond_gt_prob", Side(target=z, given=y), Side(target=z)),
        ("cond_gt_cond", Side(target=x, given=y), Side(target=x, given=not_y)),
        ("cond_ge_cond", Side(target=z, given=x & y), Side(target=z, given=y)),
        ("cond_ge_cond", Side(target=z, given=x & not_y), Side(target=z, given=not_y)),
        ("cond_gt_prob", Side(target=z, given=x), Side(target=z)),
    ]


def _side_probability(dist: JointDistribution, side: Side) -> float:
    if side.given is None:
        return probability(dist, side.target)
    return conditional(dist, side.target, side.given)


def check_transitivity(
    dist: JointDistribution,
    x: Proposition,
    y: Proposition,
    z: Proposition,
    margin: float = 0.0,
    corollary_mode: bool = False,
) -> TransitivityReport:
    """Evaluate the four transitivity conditions and the conclusion.

    Builds the sides with transitivity_sides and judges them with
    _judge_transitivity, the verdict path that fuzz_transitivity's re-check
    shares over sides it builds once per run. Each condition is
    judged by the finder's verdict rule (finder._holds): (i) and (ii)
    strictly past `margin`, (iii) and (iv) weak (>= 0 within
    BOUNDARY_TOLERANCE), the conclusion strictly past 0. Every side goes
    through prob.conditional, the scalar reference. Conditions whose
    conditionals are undefined are reported inapplicable, never silently true.
    """
    return _judge_transitivity(dist, transitivity_sides(x, y, z), margin, corollary_mode)


def _judge_transitivity(
    dist: JointDistribution,
    sides: list[tuple[str, Side, Side]],
    margin: float,
    corollary_mode: bool = False,
) -> TransitivityReport:
    """check_transitivity's verdicts over a side list from transitivity_sides."""
    results = []
    for i, (kind, lhs, rhs) in enumerate(sides):
        try:
            value = _side_probability(dist, lhs) - _side_probability(dist, rhs)
        except UndefinedConditionalError:
            results.append(_INAPPLICABLE)
            continue
        required = margin if i < 2 else 0.0
        results.append(ConditionResult(
            holds=bool(_holds(kind, value, required, BOUNDARY_TOLERANCE)),
            margin=value,
            at_boundary=abs(value) <= BOUNDARY_TOLERANCE,
        ))
    return TransitivityReport(*results, corollary_mode=corollary_mode)


class EntailmentPreconditionError(ValueError):
    """check_corollary requires y to entail z."""


def check_corollary(
    dist: JointDistribution,
    x: Proposition,
    y: Proposition,
    z: Proposition,
    margin: float = 0.0,
) -> TransitivityReport:
    """Limiting case in which y entails z: only (ii) and (iv) are decision-relevant."""
    if not entails(y, z):
        raise EntailmentPreconditionError("corollary check requires y to entail z")
    return check_transitivity(dist, x, y, z, margin=margin, corollary_mode=True)


@dataclass(frozen=True)
class Counterexample:
    distribution: JointDistribution
    x: Proposition
    y: Proposition
    z: Proposition
    samples_used: int

    def verify(self) -> bool:
        """Independent re-computation of all three confirmation relations."""
        d = self.distribution
        first = confirm(d, self.x, self.y, MINER_CONFIRM_MARGIN)
        second = confirm(d, self.y, self.z, MINER_CONFIRM_MARGIN)
        final = conditional(d, self.z, self.x) - probability(d, self.z)
        return first.confirms and second.confirms and final < -MINER_DISCONFIRM_MARGIN


def mine_naive_transitivity_counterexample(
    seed: int, budget: int
) -> Counterexample | None:
    """Search random 3-atom distributions for a naive-transitivity failure.

    Looks for atoms A, B, C with P(B|A) > P(B) + 0.01, P(C|B) > P(C) + 0.01
    and P(C|A) < P(C) - 0.001. Samples `budget` rows of one seeded stream in
    sample_blocks blocks (MINER_FIRST_BLOCK rows first, then doubling),
    judges the raw rows with CompiledConstraints, whose sides are ratios,
    and stops at the first row that satisfies the three relations and,
    normalised, passes Counterexample.verify(); samples_used is that row's
    1-based position in the stream, the same row a single full-budget draw
    would give.
    Deterministic given the seed; returns None when the budget is exhausted
    (insufficient budget, not impossibility).
    """
    if budget <= 0:
        return None
    space = WorldSpace(("A", "B", "C"))
    a, b, c = (Proposition.atom(space, name) for name in space.atoms)
    relations = CompiledConstraints([
        ProbConstraint("cond_gt_prob", Side(target=b, given=a), Side(target=b),
                       margin=MINER_CONFIRM_MARGIN),
        ProbConstraint("cond_gt_prob", Side(target=c, given=b), Side(target=c),
                       margin=MINER_CONFIRM_MARGIN),
        ProbConstraint("prob_lt", Side(target=c, given=a), Side(target=c),
                       margin=MINER_DISCONFIRM_MARGIN),
    ])
    rng = np.random.default_rng(seed)
    offset = 0
    for weights in sample_blocks(rng, space.world_count, MINER_FIRST_BLOCK, budget):
        for idx in np.flatnonzero(relations.satisfied(weights)):
            candidate = Counterexample(
                distribution=JointDistribution.from_unnormalized(space, weights[idx]),
                x=a,
                y=b,
                z=c,
                samples_used=offset + int(idx) + 1,
            )
            if candidate.verify():
                return candidate
        offset += len(weights)
    return None


@dataclass(frozen=True)
class FuzzReport:
    samples: int
    filtered: int
    violations: int
    reverified: int
    min_conclusion_margin: float


def fuzz_transitivity(samples: int, seed: int, margin: float) -> FuzzReport:
    """Sample 3-atom distributions, filter those satisfying (i)-(iv), verify (v).

    The rows are one seeded stream walked in sample_blocks blocks of
    LOOKAHEAD_VALUES // 8 rows, so memory stays one block whatever
    `samples` is, and the report does not depend on how the stream is cut.
    The filter and the conclusion are evaluated block by block on the raw
    rows by CompiledConstraints, whose sides are ratios, with its verdict
    rule (the weak conditions within BOUNDARY_TOLERANCE); the first
    FUZZ_REVERIFY_CAP filtered cases, in stream order, are additionally
    normalised and re-checked on the scalar path as an independent
    cross-check: the sides are built once per run by transitivity_sides and
    each re-checked row is judged by _judge_transitivity, the verdict path
    check_transitivity uses.
    Raises ValueError when `samples` is below 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    space = WorldSpace(("X", "Y", "Z"))
    x, y, z = (Proposition.atom(space, name) for name in space.atoms)
    sides = transitivity_sides(x, y, z)
    *conditions, conclusion = sides
    antecedent = CompiledConstraints(
        ProbConstraint(kind, lhs, rhs, margin=0.0 if kind == "cond_ge_cond" else margin)
        for kind, lhs, rhs in conditions
    )
    concluded = CompiledConstraints([ProbConstraint(*conclusion)])
    rng = np.random.default_rng(seed)
    n = space.world_count

    filtered = violations = reverified = 0
    min_margin = math.inf
    for weights in sample_blocks(rng, n, LOOKAHEAD_VALUES // n, samples):
        kept = weights[antecedent.satisfied(weights)]
        (margins,) = concluded.margins(kept)
        violations += int(np.count_nonzero(margins <= 0.0))
        min_margin = min(min_margin, margins.min(initial=math.inf))
        for row in kept[:max(FUZZ_REVERIFY_CAP - filtered, 0)]:
            dist = JointDistribution.from_unnormalized(space, row)
            report = _judge_transitivity(dist, sides, margin)
            if report.antecedent_holds and report.conclusion.holds:
                reverified += 1
        filtered += len(kept)
    return FuzzReport(
        samples=samples,
        filtered=filtered,
        violations=violations,
        reverified=reverified,
        min_conclusion_margin=float(min_margin) if filtered else float("nan"),
    )
