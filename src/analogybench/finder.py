"""Feasibility search over the probability simplex.

Finds joint distributions satisfying conditional-probability inequality
constraints at requested margins, via seeded random restarts plus
derivative-free coordinate descent on the world weights.

Every probability the search evaluates goes through one kernel,
CompiledConstraints: a constraint list compiled once into deduplicated 0/1
mask columns, each side evaluated over a weight vector or block as
(W @ num) / (W @ den). A small exact rational grid enumerator backs the
search as an independent oracle; it shares only the compiled masks and the
verdict rule (_holds) and keeps its arithmetic in integers and Fractions.
prob.conditional is the scalar reference the tests compare against.

Infeasibility is only ever reported as budget exhaustion, never as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .prob import (
    JointDistribution,
    Proposition,
    SpaceMismatchError,
    WorldSpace,
)

#: Penalty contributed by a constraint whose conditional is undefined.
UNDEFINED_PENALTY = 1.0

#: Slack for float satisfaction checks at constraint boundaries.
BOUNDARY_TOLERANCE = 1e-12

STRICT_KINDS = frozenset({"prob_gt", "prob_lt", "cond_gt_cond", "cond_gt_prob"})
WEAK_KINDS = frozenset({"cond_ge_cond"})
ALL_KINDS = STRICT_KINDS | WEAK_KINDS | {"equality"}


@dataclass(frozen=True)
class Side:
    """One side of a constraint: a constant, P(target), or P(target|given)."""

    const: float | None = None
    target: Proposition | None = None
    given: Proposition | None = None

    def __post_init__(self):
        if (self.const is None) == (self.target is None):
            raise ValueError("a side is either a constant or a (target, given?) query")

    @property
    def is_const(self) -> bool:
        return self.const is not None


@dataclass(frozen=True)
class ProbConstraint:
    kind: str
    lhs: Side
    rhs: Side
    margin: float = 0.0
    label: str | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.margin < 0:
            raise ValueError("constraint margin must be >= 0")


@dataclass(frozen=True)
class ConstraintSet:
    space: WorldSpace
    constraints: tuple[ProbConstraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise ValueError("constraint set must be nonempty")
        for c in self.constraints:
            for side in (c.lhs, c.rhs):
                for prop in (side.target, side.given):
                    if prop is not None and prop.space != self.space:
                        raise SpaceMismatchError(
                            "constraint proposition defined over a different space"
                        )


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 1
    max_samples: int = 100_000
    refine_steps: int = 60
    penalty_tolerance: float = 1e-12
    grid_resolution: int | None = None
    batch_size: int = 512

    def __post_init__(self):
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        if self.penalty_tolerance <= 0:
            raise ValueError("penalty_tolerance must be > 0")


@dataclass(frozen=True)
class FindModelResult:
    found: bool
    distribution: JointDistribution  # best-found even when not found
    penalty: float
    achieved_margins: dict[str, float]
    samples_used: int
    restarts_refined: int
    seed: int

    @property
    def infeasible_report(self) -> bool:
        return not self.found


def sample_simplex(space: WorldSpace, seed: int) -> JointDistribution:
    """Uniform draw from the simplex: normalized i.i.d. standard exponentials."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_exponential(space.world_count)
    return JointDistribution.from_unnormalized(space, raw)


class CompiledConstraints:
    """A constraint list compiled once into deduplicated 0/1 mask columns.

    A side is a constant, P(target) = W @ num or P(target | given) =
    (W @ num) / (W @ den), with num = target & given and den = given. W is one
    weight vector (n,) or a block (k, n). Each column keeps its own product
    with W: stacking the columns into one matrix product would change the
    last bits of the sums. Weights are >= 0 and num is a subset of den, so
    den = 0 forces num = 0 and 0/0 = nan marks an undefined conditional.
    """

    def __init__(self, constraints):
        self.constraints = tuple(constraints)
        self.required = np.array([_required(c) for c in self.constraints])
        # Values are laid out as [constants..., column products...].
        self.consts = [
            float(s.const)
            for c in self.constraints for s in (c.lhs, c.rhs) if s.is_const
        ]
        const_slots = iter(range(len(self.consts)))
        self.columns: list[np.ndarray] = []
        index: dict[bytes, int] = {}

        def column(mask: np.ndarray) -> int:
            key = mask.tobytes()
            if key not in index:
                index[key] = len(self.consts) + len(self.columns)
                self.columns.append(mask.astype(np.float64))
            return index[key]

        def side(s: Side) -> tuple[int, int | None]:
            if s.is_const:
                return next(const_slots), None
            if s.given is None:
                return column(s.target.mask), None
            return column(s.target.mask & s.given.mask), column(s.given.mask)

        self.sides = [(side(c.lhs), side(c.rhs)) for c in self.constraints]

    def _margins(self, values):
        """Achieved margin per constraint from the value list, lazily."""
        return (
            _achieved(c.kind, _ratio(values, lhs), _ratio(values, rhs))
            for c, (lhs, rhs) in zip(self.constraints, self.sides)
        )

    def margins(self, w: np.ndarray) -> list:
        """Achieved margin per constraint; nan when undefined.

        Floats for one weight vector, arrays of k values for a (k, n) block.
        """
        consts = [np.full(w.shape[:-1], c) for c in self.consts]
        with np.errstate(divide="ignore", invalid="ignore"):
            return list(self._margins(consts + [w.dot(col) for col in self.columns]))

    def penalty(self, w: np.ndarray):
        """Sum of squared hinges in constraint order, per row of w.

        An undefined conditional counts as a hinge of sqrt(UNDEFINED_PENALTY).
        """
        achieved = np.array(self.margins(w)).T
        hinges = np.maximum(self.required - achieved, 0.0)
        hinges[np.isnan(achieved)] = np.sqrt(UNDEFINED_PENALTY)
        # One constraint at a time, in order: a pairwise sum, or x * x in
        # place of the float power of one weight vector, changes last bits
        # and with them the descent's path.
        total = 0.0
        for hinge in hinges.T:
            total = total + hinge**2
        return total

    def satisfied(self, w: np.ndarray):
        """Whether every constraint holds, per row of w."""
        ok = True
        for c, achieved in zip(self.constraints, self.margins(w)):
            ok = ok & _holds(c, achieved, BOUNDARY_TOLERANCE)
        return ok


def _ratio(values, side: tuple[int, int | None]):
    num, den = side
    return values[num] if den is None else values[num] / values[den]


def _required(c: ProbConstraint) -> float:
    """Required achieved margin: -m for equality (|lhs-rhs| <= m), m otherwise."""
    return -c.margin if c.kind == "equality" else c.margin


def _achieved(kind: str, lhs, rhs):
    """Signed slack of a constraint, compared with _required by _holds.

    equality constraints use achieved = -|lhs - rhs| against margin -m, i.e.
    they hold iff |lhs - rhs| <= m.
    """
    if kind == "equality":
        return -abs(lhs - rhs)
    if kind == "prob_lt":
        return rhs - lhs
    return lhs - rhs


def _holds(c: ProbConstraint, achieved, tolerance: float):
    """The verdict rule of the float and the exact paths.

    Strict kinds need achieved > required; cond_ge_cond and equality need
    achieved >= required - tolerance, with tolerance 0 in exact arithmetic.
    An undefined (nan) margin never holds.
    """
    required = _required(c)
    if c.kind in STRICT_KINDS:
        return achieved > required
    return achieved >= required - tolerance


def penalty(dist: JointDistribution, cs: ConstraintSet) -> float:
    """Sum of squared hinge violations; zero iff every constraint holds at its margin."""
    if dist.space != cs.space:
        raise SpaceMismatchError("distribution and constraint set use different spaces")
    return float(CompiledConstraints(cs.constraints).penalty(dist.weights))


def achieved_margins(dist: JointDistribution, cs: ConstraintSet) -> dict[str, float]:
    values = CompiledConstraints(cs.constraints).margins(dist.weights)
    return {
        c.label or f"c{i}": float(v) for i, (c, v) in enumerate(zip(cs.constraints, values))
    }


def is_satisfied(dist: JointDistribution, cs: ConstraintSet) -> bool:
    """Float verdict: strict kinds strictly past their margin, weak and
    equality kinds within BOUNDARY_TOLERANCE of it (see _holds)."""
    return bool(CompiledConstraints(cs.constraints).satisfied(dist.weights))


def coordinate_descent(x: np.ndarray, objective, move, delta: float, steps: int):
    """Derivative-free descent over the coordinates of x.

    Each sweep tries move(x, i, delta, up) for every coordinate i, up and
    down, and keeps every candidate that lowers the objective; a sweep
    without improvement halves delta. Returns (x, objective(x)).
    """
    best = objective(x)
    for _ in range(steps):
        improved = False
        for i in range(x.shape[0]):
            for up in (True, False):
                cand = move(x, i, delta, up)
                p = objective(cand)
                if p < best:
                    best, x, improved = p, cand, True
        if best == 0.0:
            break
        if not improved:
            delta *= 0.5
            if delta < 1e-7:
                break
    return x, best


def _scale_move(w: np.ndarray, i: int, delta: float, up: bool) -> np.ndarray:
    """Multiply one world weight by 1 + delta (or divide by it), renormalized."""
    cand = w.copy()
    cand[i] *= 1.0 + delta if up else 1.0 / (1.0 + delta)
    cand /= cand.sum()
    return cand


def find_model(cs: ConstraintSet, config: SearchConfig) -> FindModelResult:
    """Seeded random restarts + coordinate descent; deterministic given the seed.

    Returns found=False after budget exhaustion, carrying the best-found
    penalty and distribution (signals "not found within budget", never proven
    infeasibility). The best penalty is non-increasing over the run.
    """
    compiled = CompiledConstraints(cs.constraints)
    rng = np.random.default_rng(config.seed)
    n = cs.space.world_count

    best_w: np.ndarray | None = None
    best_penalty = float("inf")
    samples_used = 0
    restarts_refined = 0

    while samples_used < config.max_samples:
        count = min(config.batch_size, config.max_samples - samples_used)
        raw = rng.standard_exponential((count, n))
        weights = raw / raw.sum(axis=1, keepdims=True)
        penalties = compiled.penalty(weights)
        samples_used += count

        idx = int(np.argmin(penalties))
        if penalties[idx] < best_penalty:
            w = weights[idx]
            refined, refined_penalty = coordinate_descent(
                w / w.sum(), compiled.penalty, _scale_move, 0.5, config.refine_steps
            )
            restarts_refined += 1
            if refined_penalty < best_penalty:
                best_penalty = refined_penalty
                best_w = refined
        if (
            best_w is not None
            and best_penalty <= config.penalty_tolerance
            and compiled.satisfied(best_w)
        ):
            break

    if best_w is None:  # pragma: no cover - max_samples >= 1 guarantees a sample
        best_w = np.full(n, 1.0 / n)
        best_penalty = compiled.penalty(best_w)
    dist = JointDistribution.from_unnormalized(cs.space, best_w)
    found = bool(best_penalty <= config.penalty_tolerance and compiled.satisfied(best_w))
    return FindModelResult(
        found=found,
        distribution=dist,
        penalty=float(best_penalty),
        achieved_margins=achieved_margins(dist, cs),
        samples_used=samples_used,
        restarts_refined=restarts_refined,
        seed=config.seed,
    )


class GridBudgetError(ValueError):
    """grid_enumerate refused an over-budget space or resolution."""


MAX_GRID_WORLDS = 8
MAX_GRID_RESOLUTION = 20


def _compositions(total: int, parts: int):
    """All tuples of nonnegative ints of length `parts` summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def grid_enumerate(cs: ConstraintSet, resolution: int) -> list[list[Fraction]]:
    """Enumerate all rational weight vectors k/resolution satisfying cs, exactly.

    Reads the compiled mask columns of CompiledConstraints and judges every
    point by its verdict rule in integer and Fraction arithmetic: strict kinds
    with exact strict inequality, weak kinds with >=, equality within its
    margin. Restricted to small spaces and resolutions.
    """
    n = cs.space.world_count
    if n > MAX_GRID_WORLDS:
        raise GridBudgetError(f"grid enumeration limited to {MAX_GRID_WORLDS} worlds")
    if resolution > MAX_GRID_RESOLUTION or resolution < 1:
        raise GridBudgetError(
            f"grid resolution must be in [1, {MAX_GRID_RESOLUTION}]"
        )
    compiled = CompiledConstraints(cs.constraints)
    points = list(_compositions(resolution, n))
    columns = np.array(compiled.columns, dtype=np.int64).reshape(-1, n)
    masses = (np.array(points) @ columns.T).tolist()
    consts = [Fraction(c) for c in compiled.consts]
    fractions = [Fraction(k, resolution) for k in range(resolution + 1)]
    satisfying = []
    for point, mass in zip(points, masses):
        values = consts + [fractions[m] for m in mass]
        try:
            ok = all(
                _holds(c, achieved, 0)
                for c, achieved in zip(cs.constraints, compiled._margins(values))
            )
        except ZeroDivisionError:  # an undefined conditional fails its constraint
            ok = False
        if ok:
            satisfying.append([fractions[k] for k in point])
    return satisfying
