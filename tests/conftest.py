from fractions import Fraction

import numpy as np
import pytest

from analogybench import JointDistribution, Proposition, WorldSpace


@pytest.fixture
def ab_space():
    return WorldSpace(("a", "b"))


@pytest.fixture
def ab_dist(ab_space):
    # weights {a&b: 0.3, a&!b: 0.2, !a&b: 0.1, !a&!b: 0.4}; world bit 0 is a, bit 1 is b
    return JointDistribution(ab_space, [0.4, 0.2, 0.1, 0.3])


@pytest.fixture
def xyz_space():
    return WorldSpace(("x", "y", "z"))


def random_distribution(space: WorldSpace, rng: np.random.Generator) -> JointDistribution:
    return JointDistribution.from_unnormalized(
        space, rng.standard_exponential(space.world_count)
    )


def random_proposition(space: WorldSpace, rng: np.random.Generator) -> Proposition:
    mask = rng.integers(0, 2, space.world_count).astype(bool)
    return Proposition(space, mask)


def exact_value(side, weights):
    """A side's value in exact Fraction arithmetic; None if undefined.

    Each float weight is read exactly (a float is a dyadic rational), and
    P(target) is divided by the exact total, which renormalises.
    """
    if side.is_const:
        return Fraction(side.const)
    w = [Fraction(float(x)) for x in weights]
    given = side.given.mask if side.given is not None else np.ones(len(w), dtype=bool)
    den = sum((x for x, g in zip(w, given) if g), Fraction(0))
    if den == 0:
        return None
    num = sum((x for x, t, g in zip(w, side.target.mask, given) if t and g), Fraction(0))
    return num / den


def exact_satisfied(constraints, weights) -> bool:
    """Whether every constraint holds at its margin with no float tolerance."""
    for c in constraints:
        lhs, rhs = exact_value(c.lhs, weights), exact_value(c.rhs, weights)
        if lhs is None or rhs is None:
            return False
        margin = Fraction(c.margin)
        if c.kind == "equality":
            holds = abs(lhs - rhs) <= margin
        elif c.kind == "prob_lt":
            holds = rhs - lhs > margin
        elif c.kind == "cond_ge_cond":
            holds = lhs - rhs >= margin
        else:
            holds = lhs - rhs > margin
        if not holds:
            return False
    return True
