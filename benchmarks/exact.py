"""Independent exact checker for probability constraint sets.

Shares no code with ``analogybench.finder``: it reads only the public fields
of ``ConstraintSet``/``ProbConstraint``/``Side`` and the propositions' world
masks. Weights are exact rationals (``Fraction(w)`` of a float is exact),
scaled to one common integer denominator, so every comparison is an integer
cross-multiplication:

- strict kinds (prob_gt, cond_gt_cond, cond_gt_prob): lhs - rhs >  margin
- prob_lt:                                             rhs - lhs >  margin
- weak kind (cond_ge_cond):                            lhs - rhs >= margin
- equality:                                           |lhs - rhs| <= margin

A conditional on a zero-weight event is undefined and fails its constraint.
Scaling leaves conditionals unchanged and divides unconditional sides by the
total weight, which renormalises the distribution.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

GREATER = frozenset({"prob_gt", "cond_gt_cond", "cond_gt_prob"})


def _side(side, weights: np.ndarray, total: np.ndarray):
    """(numerator, denominator) of a side's value for each integer weight row."""
    rows = weights.shape[0]
    if side.const is not None:
        value = Fraction(side.const)
        return (np.full(rows, value.numerator, dtype=object),
                np.full(rows, value.denominator, dtype=object))
    if side.given is None:
        return weights[:, side.target.mask].sum(axis=1), total
    given = side.given.mask
    return weights[:, side.target.mask & given].sum(axis=1), weights[:, given].sum(axis=1)


def satisfied_rows(cs, weights) -> np.ndarray:
    """Exact verdict of the whole set for each row of nonnegative integer weights."""
    weights = np.asarray(weights, dtype=object)
    if weights.ndim != 2 or weights.shape[1] != cs.space.world_count:
        raise ValueError("weights must be a (rows, world_count) array")
    total = weights.sum(axis=1)
    ok = (total > 0).astype(bool) & np.all(weights >= 0, axis=1).astype(bool)
    for c in cs.constraints:
        ln, ld = _side(c.lhs, weights, total)
        rn, rd = _side(c.rhs, weights, total)
        defined = ((ld > 0) & (rd > 0)).astype(bool)
        diff = ln * rd - rn * ld  # (lhs - rhs) * scale, with scale = ld * rd > 0
        scale = ld * rd
        margin = Fraction(c.margin)
        bar = margin.numerator * scale
        if c.kind in GREATER:
            holds = diff * margin.denominator > bar
        elif c.kind == "prob_lt":
            holds = -diff * margin.denominator > bar
        elif c.kind == "cond_ge_cond":
            holds = diff * margin.denominator >= bar
        elif c.kind == "equality":
            holds = np.abs(diff) * margin.denominator <= bar
        else:
            raise ValueError(f"unknown constraint kind {c.kind!r}")
        ok &= defined & np.asarray(holds, dtype=bool)
    return ok


def integer_weights(weights) -> list[int]:
    """Float weights as integers over their least common denominator."""
    fractions = [Fraction(float(w)) for w in weights]
    den = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (den // f.denominator) for f in fractions]


def certify(cs, weights) -> bool:
    """Exact verdict for one float weight vector (renormalised exactly)."""
    return bool(satisfied_rows(cs, [integer_weights(weights)])[0])


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    out = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + parts - 2 - prev)
        out.append(tuple(counts))
    return out


def grid_solutions(cs, resolution: int) -> set[tuple[int, ...]]:
    """Counts k of every grid point k/resolution that satisfies cs exactly."""
    points = compositions(resolution, cs.space.world_count)
    ok = satisfied_rows(cs, np.array(points, dtype=object))
    return {p for p, good in zip(points, ok) if good}
