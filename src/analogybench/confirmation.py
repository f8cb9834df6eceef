"""Bayesian confirmation verdicts and the transitivity-of-confirmation checker.

Confirmation is incremental: evidence E confirms hypothesis H when
P(H|E) > P(H). Confirmation is not transitive in general; the checker here
evaluates a sufficient condition set for transitivity over a chain X -> Y -> Z:

    (i)   P(Z|Y)      > P(Z)
    (ii)  P(X|Y)      > P(X|!Y)
    (iii) P(Z|X & Y)  >= P(Z|Y)
    (iv)  P(Z|X & !Y) >= P(Z|!Y)
    =>    P(Z|X)      > P(Z)

In the limiting case in which Y entails Z, (ii) and (iv) alone suffice;
check_transitivity still judges all four, and
tests/test_acceptance.py::test_02_corollary_fuzz checks that corollary.
The counterexample miner searches for naive-transitivity failures:
X confirms Y, Y confirms Z, yet X disconfirms Z.

Each verdict is written once, as a ProbConstraint list: the conditions and
the conclusion by transitivity_constraints, the miner's three relations by
_naive_chain. The compiled kernel (finder.CompiledConstraints) reads a list
on sampled blocks, and on one distribution it reads the same rows with
correctly rounded (math.fsum) sums (CompiledConstraints.scalar_margins),
judged by the kernel's verdict rule: per constraint by _judge for
check_transitivity's report, and as one boolean by
CompiledConstraints.scalar_satisfied where only the verdict is read (the fuzz
re-check, the miner and Counterexample.verify). The scalar judge reads a
distribution's weights as a plain list. The fuzz harness compiles all five
constraints once, reads each sampled block with one kernel call, and
re-checks kept rows, normalised as one block, over the same compiled list.
prob.conditional and prob.probability stay the independent reference, read
by confirm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .finder import (
    BOUNDARY_TOLERANCE,
    CompiledConstraints,
    ConstraintSet,
    ProbConstraint,
    Side,
    sample_blocks,
)
from .prob import (
    JointDistribution,
    Proposition,
    UndefinedConditionalError,
    WorldSpace,
    check_weights,
    conditional,
    normalised,
    probability,
)

#: Margins at which mined counterexamples must hold, so that they survive
#: independent re-computation comfortably clear of float noise.
MINER_CONFIRM_MARGIN = 0.01
MINER_DISCONFIRM_MARGIN = 0.001

#: Most filtered fuzz cases re-checked with correctly rounded sums
#: (CompiledConstraints.scalar_satisfied).
FUZZ_REVERIFY_CAP = 500


@dataclass(frozen=True)
class ConfirmationVerdict:
    confirms: bool
    degree: float  # difference measure P(h|e) - P(h)
    measures: dict[str, float] = field(default_factory=dict)


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

    @property
    def antecedent_holds(self) -> bool:
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
    return ConfirmationVerdict(confirms=degree > margin, degree=degree, measures=measures)


def transitivity_constraints(
    x: Proposition, y: Proposition, z: Proposition, margin: float = 0.0
) -> list[ProbConstraint]:
    """Conditions (i)-(iv) and the conclusion over x -> y -> z, labelled.

    (i) and (ii) must hold strictly past `margin`; (iii), (iv) and the
    conclusion take margin 0. ProbConstraint rejects a negative or
    non-finite margin with ValueError.
    """
    not_y = ~y
    return [
        ProbConstraint("cond_gt_prob", Side(target=z, given=y), Side(target=z),
                       margin=margin, label="i"),
        ProbConstraint("cond_gt_cond", Side(target=x, given=y), Side(target=x, given=not_y),
                       margin=margin, label="ii"),
        ProbConstraint("cond_ge_cond", Side(target=z, given=x & y), Side(target=z, given=y),
                       label="iii"),
        ProbConstraint("cond_ge_cond", Side(target=z, given=x & not_y),
                       Side(target=z, given=not_y), label="iv"),
        ProbConstraint("cond_gt_prob", Side(target=z, given=x), Side(target=z),
                       label="conclusion"),
    ]


def _judge(dist: JointDistribution, compiled: CompiledConstraints) -> list[ConditionResult]:
    """One ConditionResult per constraint of a compiled list, on one distribution.

    The achieved margins are compiled.scalar_margins(dist), the kernel's
    rows read with correctly rounded sums, each judged against the kernel's
    verdict floor. A constraint with an undefined conditional (a nan margin)
    is inapplicable, never silently true.
    """
    return [
        _INAPPLICABLE if math.isnan(margin) else ConditionResult(
            holds=margin >= floor,
            margin=margin,
            at_boundary=abs(margin) <= BOUNDARY_TOLERANCE,
        )
        for margin, floor in zip(compiled.scalar_margins(dist.weights.tolist()), compiled._floors)
    ]


def check_transitivity(
    dist: JointDistribution,
    x: Proposition,
    y: Proposition,
    z: Proposition,
    margin: float = 0.0,
) -> TransitivityReport:
    """Evaluate the four transitivity conditions and the conclusion.

    The list from transitivity_constraints, compiled and judged by _judge:
    (i) and (ii) strictly past `margin`, (iii) and (iv) weak (>= 0 within
    BOUNDARY_TOLERANCE), the conclusion strictly past 0. Conditions whose
    conditionals are undefined are reported inapplicable. Raises ValueError
    for a negative or non-finite margin, and SpaceMismatchError when x, y or
    z is over another space than dist.
    """
    constraints = ConstraintSet(dist.space, transitivity_constraints(x, y, z, margin))
    return TransitivityReport(*_judge(dist, CompiledConstraints(constraints.constraints)))


@dataclass(frozen=True)
class Counterexample:
    distribution: JointDistribution
    x: Proposition
    y: Proposition
    z: Proposition
    samples_used: int

    def verify(self) -> bool:
        """Re-computation of all three relations of _naive_chain, judged on
        the compiled rows' correctly rounded sums (scalar_satisfied)."""
        dist = self.distribution
        chain = ConstraintSet(dist.space, _naive_chain(self.x, self.y, self.z))
        return CompiledConstraints(chain.constraints).scalar_satisfied(dist.weights.tolist())


def _naive_chain(a: Proposition, b: Proposition, c: Proposition) -> list[ProbConstraint]:
    """The miner's relations: a confirms b and b confirms c past
    MINER_CONFIRM_MARGIN, and a disconfirms c past MINER_DISCONFIRM_MARGIN."""
    return [
        ProbConstraint("cond_gt_prob", Side(target=b, given=a), Side(target=b),
                       margin=MINER_CONFIRM_MARGIN),
        ProbConstraint("cond_gt_prob", Side(target=c, given=b), Side(target=c),
                       margin=MINER_CONFIRM_MARGIN),
        ProbConstraint("prob_lt", Side(target=c, given=a), Side(target=c),
                       margin=MINER_DISCONFIRM_MARGIN),
    ]


def mine_naive_transitivity_counterexample(
    seed: int, budget: int
) -> Counterexample | None:
    """Search random 3-atom distributions for a naive-transitivity failure.

    Looks for atoms A, B, C with P(B|A) > P(B) + 0.01, P(C|B) > P(C) + 0.01
    and P(C|A) < P(C) - 0.001. Samples `budget` rows of one seeded stream in
    sample_blocks blocks, judges the raw rows with CompiledConstraints over
    _naive_chain, whose sides are ratios, and stops at the first row that
    satisfies the three relations and, normalised, holds them by
    scalar_satisfied over the same compiled list, the check
    Counterexample.verify() makes; samples_used is that row's 1-based
    position in the stream, the same row a single full-budget draw would
    give.
    Deterministic given the seed; returns None when the budget is exhausted
    (insufficient budget, not impossibility).
    Raises ValueError when `budget` is below 1.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    space = WorldSpace(("A", "B", "C"))
    a, b, c = (Proposition.atom(space, name) for name in space.atoms)
    relations = CompiledConstraints(_naive_chain(a, b, c))
    rng = np.random.default_rng(seed)
    offset = 0
    for weights in sample_blocks(rng, space.world_count, budget):
        for idx in np.flatnonzero(relations.satisfied(weights)):
            dist = JointDistribution.from_unnormalized(space, weights[idx])
            if relations.scalar_satisfied(dist.weights.tolist()):
                return Counterexample(dist, a, b, c, samples_used=offset + int(idx) + 1)
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

    The rows are one seeded stream walked in sample_blocks blocks, the
    solver's and the miner's, so memory stays one block whatever `samples`
    is, and the report does not depend on how the stream is cut.
    The constraint list is built once per run by transitivity_constraints
    and compiled once by CompiledConstraints, whose sides are ratios, so
    each block of raw rows takes one kernel reading of all five margins.
    The filter is rows (i)-(iv) of that reading against the kernel's own
    floors, its verdict rule (the weak conditions within
    BOUNDARY_TOLERANCE), and the conclusion margins are the last row at
    the kept columns. The first FUZZ_REVERIFY_CAP filtered cases, in
    stream order, are additionally re-checked with correctly rounded sums
    as a cross-check of the block kernel's rounding: they are normalised as
    one block by prob.normalised, the bits from_unnormalized gives row by
    row, and checked once by prob.check_weights, JointDistribution's rules.
    Each row, as a list, is then judged once over the same compiled list by
    scalar_satisfied, the verdict rule check_transitivity's _judge applies
    to the same margins; reverified counts the rows that hold.
    Raises ValueError when `samples` is below 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    space = WorldSpace(("X", "Y", "Z"))
    x, y, z = (Proposition.atom(space, name) for name in space.atoms)
    checks = CompiledConstraints(transitivity_constraints(x, y, z, margin))
    rng = np.random.default_rng(seed)

    filtered = violations = reverified = 0
    min_margin = math.inf
    for weights in sample_blocks(rng, space.world_count, samples):
        achieved = checks.margins(weights)
        holds = (achieved[:4] >= checks._floor[:4]).all(axis=0)
        kept, margins = weights[holds], achieved[4, holds]
        violations += int(np.count_nonzero(margins <= 0.0))
        min_margin = min(min_margin, margins.min(initial=math.inf))
        if filtered < FUZZ_REVERIFY_CAP:
            head = normalised(kept[:FUZZ_REVERIFY_CAP - filtered])
            check_weights(head)
            reverified += sum(map(checks.scalar_satisfied, head.tolist()))
        filtered += len(kept)
    return FuzzReport(
        samples=samples,
        filtered=filtered,
        violations=violations,
        reverified=reverified,
        min_conclusion_margin=float(min_margin) if filtered else float("nan"),
    )
