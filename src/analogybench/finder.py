"""Feasibility search over the probability simplex.

Finds joint distributions satisfying conditional-probability inequality
constraints at requested margins, via seeded random restarts plus
derivative-free block coordinate descent on the world weights: each sweep
scores all 2n single-coordinate moves in one block evaluation, then a short
line search along their improving combination in a second.

Restarts are sampled ahead in blocks of batches (sample_blocks): the first
block is one batch, each later block doubles, up to LOOKAHEAD_VALUES floats,
and each block is scored with one penalty call. The search then walks the
block batch by batch under the same rule as one draw per batch would, so
drawing ahead changes the number of calls, not the result (see find_model).
The first exact marginal equality P(T) = c in a set is met by construction:
samples and descent moves are normalised per block, T-worlds to c and the
rest to 1 - c, so the search never leaves P(T) = c.

Every probability the search evaluates goes through one kernel,
CompiledConstraints: a constraint list compiled once into deduplicated 0/1
mask columns, each side evaluated over a weight vector or block as
(W @ num) / (W @ den). A small exact rational grid enumerator backs the
search as an independent oracle; it shares only the compiled masks and the
verdict rule (STRICT_KINDS, _required and the signs of _achieved) and
decides all grid points at once in int64 arithmetic, with one exact Fraction
threshold per constraint. prob.conditional is the scalar reference the tests
compare against.

Infeasibility is only ever reported as budget exhaustion, never as a proof.
"""

from __future__ import annotations

import itertools
import math
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
        if self.is_const and not math.isfinite(self.const):
            raise ValueError("a constant side must be finite")

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
        if not math.isfinite(self.margin) or self.margin < 0:
            raise ValueError("constraint margin must be finite and >= 0")


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
    refine_steps: int = 240
    penalty_tolerance: float = 1e-12
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


def sample_simplex(space: WorldSpace, seed: int) -> JointDistribution:
    """Uniform draw from the simplex: normalized i.i.d. standard exponentials."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_exponential(space.world_count)
    return JointDistribution.from_unnormalized(space, raw)


#: Most floats one look-ahead block of sample_blocks holds, unless its first
#: block alone is larger. A block's penalty call keeps one product per mask
#: column per row, several times the block itself on large constraint sets;
#: blocks of 2**16 and 2**17 floats exhausted budgets no faster.
LOOKAHEAD_VALUES = 2**15


def sample_blocks(rng: np.random.Generator, n: int, first: int, total: int):
    """Yield `total` uniform simplex rows over n worlds as (k, n) blocks.

    The first block has `first` rows and each later one twice as many, while
    a block stays within LOOKAHEAD_VALUES floats; the last block holds what
    is left. The rows, concatenated, are exactly one
    rng.standard_exponential((total, n)) draw normalised per row: the stream
    does not depend on how it is cut, and each row is normalised on its own.
    Blocks are drawn lazily, so a caller that stops early draws at most one
    block ahead.
    """
    drawn, size = 0, first
    while drawn < total:
        count = min(size, total - drawn)
        raw = rng.standard_exponential((count, n))
        yield raw / raw.sum(axis=1, keepdims=True)
        drawn += count
        if 2 * size * n <= LOOKAHEAD_VALUES:
            size *= 2


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

    def named_margins(self, w: np.ndarray) -> dict[str, float]:
        """Achieved margin of one weight vector per constraint label (c<i> if none)."""
        return {
            c.label or f"c{i}": float(v)
            for i, (c, v) in enumerate(zip(self.constraints, self.margins(w)))
        }

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
        for c, required, achieved in zip(self.constraints, self.required, self.margins(w)):
            ok = ok & _holds(c.kind, achieved, required, BOUNDARY_TOLERANCE)
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


def _holds(kind: str, achieved, required, tolerance: float):
    """The verdict rule on an achieved margin, float or exact.

    required is the constraint's _required margin. Strict kinds need
    achieved > required; cond_ge_cond and equality need
    achieved >= required - tolerance, with tolerance 0 in exact arithmetic.
    An undefined (nan) margin never holds. grid_enumerate applies the same
    rule in integers.
    """
    if kind in STRICT_KINDS:
        return achieved > required
    return achieved >= required - tolerance


def penalty(dist: JointDistribution, cs: ConstraintSet) -> float:
    """Sum of squared hinge violations; zero iff every constraint holds at its margin."""
    if dist.space != cs.space:
        raise SpaceMismatchError("distribution and constraint set use different spaces")
    return float(CompiledConstraints(cs.constraints).penalty(dist.weights))


def achieved_margins(dist: JointDistribution, cs: ConstraintSet) -> dict[str, float]:
    return CompiledConstraints(cs.constraints).named_margins(dist.weights)


def is_satisfied(dist: JointDistribution, cs: ConstraintSet) -> bool:
    """Float verdict: strict kinds strictly past their margin, weak and
    equality kinds within BOUNDARY_TOLERANCE of it (see _holds)."""
    return bool(CompiledConstraints(cs.constraints).satisfied(dist.weights))


#: Line-search step multiples along the combination of a sweep's improving moves.
LINE_SEARCH_STEPS = np.array([[1.0], [2.0], [4.0], [8.0], [16.0]])


def coordinate_descent(x: np.ndarray, objective, move, delta: float, steps: int):
    """Derivative-free block descent over the coordinates of x.

    objective scores one point (n,) or every row of a block (k, n) in one
    call. move(x, signs, delta) returns one candidate per row of signs, a
    (k, n) matrix in {-1, 0, +1}; delta is a float or a (k, 1) column of
    per-row steps. Each sweep scores the 2n single-coordinate moves (every
    coordinate up and down) as one block, then a line search along the
    combination of every improving move (LINE_SEARCH_STEPS times delta) as a
    second block, and keeps the best candidate of both if it lowers the
    objective; a sweep without improvement halves delta. A start at
    objective 0 returns at once. Returns (x, objective(x)), never above the
    start value.
    """
    start = objective(x)
    if start == 0.0:
        return x, start
    n = x.shape[0]
    single = np.concatenate([np.eye(n), -np.eye(n)])
    x0, best = x, start
    for _ in range(steps):
        cands = move(x, single, delta)
        scores = objective(cands)
        improving = scores < best
        if not improving.any():
            delta *= 0.5
            if delta < 1e-7:
                break
            continue
        up, down = scores[:n], scores[n:]
        signs = (improving[:n] & (up <= down)).astype(float)
        signs -= improving[n:] & (down < up)
        line = move(x, signs[None, :], delta * LINE_SEARCH_STEPS)
        cands = np.concatenate([cands, line])
        scores = np.concatenate([scores, objective(line)])
        j = int(np.argmin(scores))
        x, best = cands[j], scores[j]
        if best == 0.0:
            break
    # A block row and a lone vector sum in different orders, so the value is
    # recomputed for the returned point and kept only if it is no worse.
    best = objective(x)
    if best > start:
        return x0, start
    return x, best


def _marginal_pin(constraints) -> tuple[np.ndarray, float] | None:
    """The first exact marginal equality P(T) = c, as (T's world mask, c).

    That is an equality at margin 0 between P(T), with no given, and a
    constant c in [0, 1], where T is neither empty nor every world; either
    side may hold the constant. None when the set has no such constraint.
    """
    for con in constraints:
        if con.kind != "equality" or con.margin != 0.0:
            continue
        for query, const in ((con.lhs, con.rhs), (con.rhs, con.lhs)):
            if query.is_const or query.given is not None or not const.is_const:
                continue
            mask = query.target.mask
            if 0.0 <= const.const <= 1.0 and mask.any() and not mask.all():
                return mask, const.const
    return None


def _normalise(w: np.ndarray, pin: tuple[np.ndarray, float] | None) -> np.ndarray:
    """Each row of w scaled to sum 1, or per block under a pin (T, c).

    Under a pin the T-worlds of a row sum to c and the other worlds to
    1 - c; a block of mass 0 is set to exactly 0 and never divided.
    """
    if pin is None:
        return w / w.sum(axis=-1, keepdims=True)
    mask, c = pin
    out = np.zeros_like(w)
    for block, mass in ((mask, c), (~mask, 1.0 - c)):
        if mass > 0.0:
            part = w[..., block]
            out[..., block] = part * (mass / part.sum(axis=-1, keepdims=True))
    return out


def _scale_move(w: np.ndarray, signs: np.ndarray, delta, pin=None) -> np.ndarray:
    """Multiply each world weight by (1 + delta) ** sign, renormalized per row
    (per block under a pin, see _normalise)."""
    return _normalise(w * (1.0 + delta) ** signs, pin)


def find_model(cs: ConstraintSet, config: SearchConfig) -> FindModelResult:
    """Seeded random restarts + coordinate descent; deterministic given the seed.

    Samples are drawn by sample_blocks in blocks of whole batches (the first
    block is one batch, later ones double up to LOOKAHEAD_VALUES floats) and
    each block is scored with one penalty call. The block is then walked
    batch by batch: a batch's best sample is refined if it beats the best
    penalty so far, and the search stops after the first batch that leaves a
    model. samples_used counts whole batches walked, not rows drawn ahead.
    At the default batch size each row's penalty is bit for bit the one a
    per-batch call gives; at sizes such as 1 or 7, which split the BLAS
    kernel's row groups, a row can differ in its last bit, and that moves a
    result only through a tie within one ulp.

    An exact marginal equality P(T) = c (see _marginal_pin; only the first
    one in the set) is met by construction: the search runs only over
    distributions with P(T) = c, every sampled row and every descent
    candidate normalised per block by _normalise. The constraint stays in
    the compiled set, so found still means every constraint holds. Any
    further exact equality is an ordinary constraint.

    Returns found=False after budget exhaustion, carrying the best-found
    penalty and distribution (signals "not found within budget", never proven
    infeasibility). The best penalty is non-increasing over the run.
    """
    compiled = CompiledConstraints(cs.constraints)
    pin = _marginal_pin(cs.constraints)
    rng = np.random.default_rng(config.seed)
    n = cs.space.world_count
    batch_size = config.batch_size

    def move(w, signs, delta):
        return _scale_move(w, signs, delta, pin)

    def batches():
        for block in sample_blocks(rng, n, batch_size, config.max_samples):
            if pin is not None:
                block = _normalise(block, pin)
            penalties = compiled.penalty(block)
            for start in range(0, len(block), batch_size):
                stop = start + batch_size
                yield block[start:stop], penalties[start:stop]

    best_w: np.ndarray | None = None
    best_penalty = float("inf")
    samples_used = 0
    restarts_refined = 0

    for weights, penalties in batches():
        samples_used += len(weights)
        idx = int(np.argmin(penalties))
        if penalties[idx] < best_penalty:
            refined, refined_penalty = coordinate_descent(
                _normalise(weights[idx], pin), compiled.penalty, move, 0.5,
                config.refine_steps,
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
        achieved_margins=compiled.named_margins(dist.weights),
        samples_used=samples_used,
        restarts_refined=restarts_refined,
        seed=config.seed,
    )


class GridBudgetError(ValueError):
    """grid_enumerate refused an over-budget space or resolution."""


MAX_GRID_WORLDS = 8
MAX_GRID_RESOLUTION = 20


def _compositions(total: int, parts: int) -> np.ndarray:
    """All rows of `parts` nonnegative ints summing to `total`, lexicographic.

    Stars and bars: each choice of parts - 1 bar positions among
    total + parts - 1 slots is one row; combinations come in lexicographic
    order, and so do the rows.
    """
    slots = total + parts - 1
    count = math.comb(slots, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),
    ).reshape(count, parts - 1)
    edges = np.hstack([np.full((count, 1), -1), bars, np.full((count, 1), slots)])
    return np.diff(edges, axis=1) - 1


def _signs(kind: str) -> tuple[int, ...]:
    """Signs s with _achieved(kind, lhs, rhs) = min over s of s * (lhs - rhs)."""
    return (1, -1) if kind == "equality" else (_achieved(kind, 1, 0),)


def grid_enumerate(cs: ConstraintSet, resolution: int) -> list[list[Fraction]]:
    """Enumerate all rational weight vectors k/resolution satisfying cs, exactly.

    Reads the compiled mask columns of CompiledConstraints and judges every
    point by its verdict rule in integer arithmetic: strict kinds with exact
    strict inequality, weak kinds with >=, equality within its margin.
    Restricted to small spaces and resolutions.

    All points are decided at once. With R = resolution, every mask side is
    num/den in integer counts (den = R for P(target)), so lhs - rhs is
    X / Y + k with X = ln * rd - rn * ld, Y = ld * rd (|X|, Y <= R**2) and k
    an exact constant from the constant sides. Each sign s of the achieved
    margin then holds iff s * X >= lo[Y], where lo[Y] = floor(t * Y) + 1 for
    strict kinds and ceil(t * Y) for weak ones, with the threshold
    t = required - s * k one Fraction per constraint. Y = 0 is an undefined
    conditional, which fails its constraint.
    """
    n = cs.space.world_count
    if n > MAX_GRID_WORLDS:
        raise GridBudgetError(f"grid enumeration limited to {MAX_GRID_WORLDS} worlds")
    if resolution > MAX_GRID_RESOLUTION or resolution < 1:
        raise GridBudgetError(
            f"grid resolution must be in [1, {MAX_GRID_RESOLUTION}]"
        )
    compiled = CompiledConstraints(cs.constraints)
    points = _compositions(resolution, n)
    columns = np.array(compiled.columns, dtype=np.int64).reshape(-1, n)
    masses = points @ columns.T
    n_consts = len(compiled.consts)

    def side(slot: tuple[int, int | None]):
        """A side as num / den + const: counts for a mask side, 0 / 1 + c for c."""
        num, den = slot
        if num < n_consts:
            return 0, 1, Fraction(compiled.consts[num])
        den = resolution if den is None else masses[:, den - n_consts]
        return masses[:, num - n_consts], den, 0

    ok = np.ones(len(points), dtype=bool)
    for c, (lhs, rhs) in zip(cs.constraints, compiled.sides):
        (ln, ld, lc), (rn, rd, rc) = side(lhs), side(rhs)
        x, y, k = ln * rd - rn * ld, ld * rd, lc - rc
        strict = c.kind in STRICT_KINDS
        for s in _signs(c.kind):
            lo = _lower_bounds(Fraction(_required(c)) - s * k, strict, resolution)
            ok &= s * x >= lo[y]
    fractions = [Fraction(k, resolution) for k in range(resolution + 1)]
    return [[fractions[k] for k in point] for point in points[ok].tolist()]


def _lower_bounds(t: Fraction, strict: bool, resolution: int) -> np.ndarray:
    """Least integer X with X / Y > t (strict) or >= t, for each Y in [0, R**2].

    Clipped to +-(R**2 + 1), beyond every |X| <= R**2, so no verdict moves and
    int64 cannot overflow; Y = 0, an undefined conditional, gets R**2 + 1,
    which no X reaches.
    """
    limit = resolution**2 + 1
    p, q = t.numerator, t.denominator
    lo = [limit]
    for y in range(1, limit):
        bound = p * y // q + 1 if strict else -(-p * y // q)
        lo.append(min(max(bound, -limit), limit))
    return np.array(lo, dtype=np.int64)
