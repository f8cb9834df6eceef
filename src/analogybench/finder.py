"""Feasibility search over the probability simplex.

Finds joint distributions satisfying conditional-probability inequality
constraints at requested margins, via seeded random restarts plus
derivative-free block coordinate descent on the world weights: each sweep
scores all 2n single-coordinate moves in one block evaluation, then a short
line search along their improving combination in a second, unless a single
move already reads 0, which ends the descent. The single moves are 2n
copies of the point with one weight scaled in each, two powers per sweep
rather than one per entry (_single_moves).

Restarts are sampled ahead in blocks of batches (sample_blocks): the first
block is one batch, each later block doubles, up to LOOKAHEAD_VALUES floats,
and each block is scored with one penalty call; the fuzz harness walks
the same blocks. The search then walks the block batch by batch under the
same rule as one draw per batch would, so drawing ahead changes the number
of calls, not the result (see find_model). Once a search has
refined without finding a model, it reads each later block first over a
screen, the constraints violated at its best model compiled on their own
with margins lowered by a rounding allowance, and skips the block unscored
when its least screened bound proves that no row can beat the best; that
too changes the calls, not the result. A refine that ends near a model but
short of it, at a best penalty below the square of the least positive
required margin, stalls the search: the batches 1, 2, 4, 8, ... after it
restart descent whatever their raw penalty, at most floor(log2 B) + 1
extra refines for B batches (see find_model).
The first exact marginal equality P(T) = c in a set is met by construction:
under it, samples and descent moves are normalised per block, T-worlds to c
and the rest to 1 - c, so the search never leaves P(T) = c.

Every probability the search evaluates goes through one kernel,
CompiledConstraints: a constraint list compiled once into a stacked matrix
of deduplicated 0/1 mask columns, each query side evaluated over a weight
vector or block as one ratio (W @ num) / (W @ den), with one matrix product
per call. A search enters one numpy error state for all its block,
descent and screen readings, not one per call. P(target) is target over
the all-ones column, so every side is scale-invariant and the sampled rows
are scored as drawn, never normalised; only a refine's start, descent
moves and a pinned block are normalised. A small exact rational grid
enumerator backs the search as an oracle: it reads the kernel's value rows
over integer weights (CompiledConstraints.integer_differences), shares the
verdict rule (STRICT_KINDS and _required) and decides the grid points in
int64 arithmetic, a block of GRID_CHUNK points per pass, with one exact
Fraction threshold per constraint. The kernel sums a mask column in two ways, over
one arithmetic and one compiled plan: by the matrix product, and by
correctly rounded math.fsum sums (CompiledConstraints.scalar_margins),
which confirmation's judge reads; both fill the same value array, and one
tail divides, subtracts and takes equality's -|.| after either.
prob.conditional stays the independent reference the tests compare against.

Infeasibility is only ever reported as budget exhaustion, never as a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .prob import (
    JointDistribution,
    Proposition,
    SpaceMismatchError,
    WorldSpace,
)

#: Penalty contributed by a constraint whose conditional is undefined.
UNDEFINED_PENALTY = 1.0

#: The hinge an undefined conditional counts as, squared to UNDEFINED_PENALTY.
_UNDEFINED_HINGE = math.sqrt(UNDEFINED_PENALTY)

#: The error state a kernel reading runs in. 0/0 marks an undefined
#: conditional; two constant sides near the float limit can differ by more
#: than it, and a hinge past about 1e154 squares past it: those values are
#: infinite, as they are, without a warning.
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}

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
        if (self.const is None) == (self.target is None) or self.is_const and self.given is not None:
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
        seen = set()
        for name in _names(self.constraints):
            if name in seen:
                raise ValueError(f"duplicate constraint name {name!r}")
            seen.add(name)
        for c in self.constraints:
            for side in (c.lhs, c.rhs):
                for prop in (side.target, side.given):
                    if prop is not None and prop.space != self.space:
                        raise SpaceMismatchError(
                            "constraint proposition defined over a different space"
                        )


@dataclass(frozen=True)
class SearchConfig:
    """A find_model run: the seed of its sample stream and its sample budget.

    Both are Python ints (a bool is not one): a seed >= 0, a budget >= 1.
    """

    seed: int = 1
    max_samples: int = 100_000

    def __post_init__(self):
        for field in ("seed", "max_samples"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{field} must be an int, got {type(value).__name__}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")


@dataclass(frozen=True)
class FindModelResult:
    found: bool
    distribution: JointDistribution  # best-found even when not found
    penalty: float
    achieved_margins: dict[str, float]
    samples_used: int
    restarts_refined: int


def sample_simplex(space: WorldSpace, seed: int) -> JointDistribution:
    """Uniform draw from the simplex: normalized i.i.d. standard exponentials."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_exponential(space.world_count)
    return JointDistribution.from_unnormalized(space, raw)


#: Samples per batch: find_model refines the best sample of each batch, and
#: every sample_blocks stream, the solver's and the fuzz harness's, starts
#: with a block of this many rows.
BATCH_SIZE = 512

#: Most floats one look-ahead block of sample_blocks holds, unless its first
#: block alone is larger. A block's penalty call holds one value array, a row
#: per mask column, constant and conditional side for every sampled row, and
#: the (constraints, rows) margins: several times the block itself on large
#: constraint sets.
LOOKAHEAD_VALUES = 2**15


def sample_blocks(rng: np.random.Generator, n: int, total: int):
    """Yield `total` uniform simplex rows over n worlds as raw (k, n) blocks.

    A row is i.i.d. standard exponentials: normalised, it is a uniform draw
    from the simplex, but it is yielded unnormalised, since every query side
    of CompiledConstraints is a ratio and reads a row and its normalisation
    alike. Its two callers, find_model and the fuzz harness, normalise a row
    they refine or re-check themselves. The first block has BATCH_SIZE
    rows and each later one twice as many, while a block stays within
    LOOKAHEAD_VALUES floats; the last block holds what is left. The rows,
    concatenated, are exactly one rng.standard_exponential((total, n)) draw:
    the stream does not depend on how it is cut, and each yielded block is a
    new array that later draws never touch. Blocks are drawn lazily, so a
    caller that stops early draws at most one block ahead.
    """
    drawn, size = 0, BATCH_SIZE
    while drawn < total:
        count = min(size, total - drawn)
        yield rng.standard_exponential((count, n))
        drawn += count
        if 2 * size * n <= LOOKAHEAD_VALUES:
            size *= 2


class CompiledConstraints:
    """A constraint list compiled once into one fused mask-ratio kernel.

    A side is a constant or a query, and every query side is one ratio
    (W @ num) / (W @ den): P(target | given) has num = target & given and
    den = given, and P(target) has num = target and den = the all-ones mask.
    So every query side is scale-invariant, and a row of W need not sum to 1:
    any positive multiple of a row reads the same values, up to rounding in
    the matrix product. A row of total mass 0 reads every P(target) as
    undefined (nan); the search never builds one. W is one weight vector (n,)
    or a block (k, n); a vector takes the same path as a block of one row.
    The deduplicated 0/1 mask columns, the all-ones column among them when a
    set has an unconditional side, are stacked into one contiguous (C, n)
    matrix, columns, so a call takes one matrix product for all columns and
    rows. Every call fills one value array with a row per value and a column
    per row of W, in one row order: [constants..., mask columns..., ratios...],
    where each distinct query side is one ratio row, one division num / den
    of two column rows. A constant is read as is, never divided. A
    constraint's achieved margin is then its first row minus its second
    (prob_lt's sides swapped at compile time, equality's -|.| taken after),
    and penalty and satisfied reduce the (m, k) margins over the constraint
    axis without a per-constraint loop. A call copies the rows it reads, the
    ratios' num and den and the constraints' first and second, out of the
    value array by take. Each public reader called on its own enters one
    numpy error state (_QUIET): penalty, margins, satisfied, screen,
    scalar_margins and _Screen.least one each. find_model enters it once
    for a whole search and reads through _penalty and _Screen._least, which
    run in their caller's state. Weights are >= 0 and num is a subset of
    den, so den = 0 forces num = 0 and 0/0 = nan marks an undefined
    conditional. integer_differences reads the same plan over integer
    weights, exactly, for grid_enumerate. The compile walks each
    constraint's two sides once, and the columns are one buffer of the
    masks' bytes, cast to float.

    The float readers differ only in how a mask-column row is summed; the
    constants, divisions, first - second and equality's -|.| after it are
    one tail, _margins_of. penalty, margins, satisfied and screen sum by
    the matrix product, in its own order, so their values can differ from
    prob.conditional's correctly rounded (math.fsum) sums in the last bits;
    same-seed search results depend on those bits. scalar_margins and
    scalar_satisfied sum each row with math.fsum.
    """

    def __init__(self, constraints):
        self.constraints = tuple(constraints)
        # One pass over the sides. A constant is numbered in lhs-then-rhs
        # order, a mask column by the bytes of its mask as it is first met,
        # and a ratio, a (num, den) pair of column numbers, as the achieved
        # margin's first, then second, side first reads it. first and second
        # hold a constant's number c as c and a ratio's number r as ~r.
        consts: list[float] = []
        index: dict[bytes, int] = {}
        ratios: dict[tuple[int, int], int] = {}
        first, second, equality_rows, required, floor = [], [], [], [], []
        for i, c in enumerate(self.constraints):
            sides = []
            for s in (c.lhs, c.rhs):
                if s.const is not None:
                    sides.append(len(consts))
                    consts.append(float(s.const))
                    continue
                target = s.target.mask
                num, den = ((target.tobytes(), b"\x01" * len(target)) if s.given is None
                            else ((target & s.given.mask).tobytes(), s.given.mask.tobytes()))
                sides.append((index.setdefault(num, len(index)), index.setdefault(den, len(index))))
            # The achieved margin is first - second: prob_lt swaps its sides,
            # and equality then takes -|first - second|.
            if c.kind == "prob_lt":
                sides.reverse()
            for s, rows in zip(sides, (first, second)):
                rows.append(s if isinstance(s, int) else ~ratios.setdefault(s, len(ratios)))
            if c.kind == "equality":
                equality_rows.append(i)
            r = _required(c)
            required.append(r)
            # The verdict rule: a constraint holds iff its achieved margin is
            # >= its floor. Strict kinds need achieved > required, which is
            # achieved >= the next float above required; cond_ge_cond and
            # equality need achieved >= required - BOUNDARY_TOLERANCE. A nan
            # (undefined) margin never holds.
            floor.append(math.nextafter(r, math.inf) if c.kind in STRICT_KINDS
                         else r - BOUNDARY_TOLERANCE)
        # The value rows are [constants..., mask columns..., ratios...].
        n_consts = len(consts)
        known = n_consts + len(index)
        self._first = np.array([s if s >= 0 else known + ~s for s in first], dtype=int)
        self._second = np.array([s if s >= 0 else known + ~s for s in second], dtype=int)
        self._ratio_num = np.array([n_consts + num for num, _ in ratios], dtype=int)
        self._ratio_den = np.array([n_consts + den for _, den in ratios], dtype=int)
        self._known, self._n_values = known, known + len(ratios)
        self._consts = np.array(consts)[:, None]
        # A mask's bytes are its 0/1 bools, one per world.
        self.columns = (np.frombuffer(b"".join(index), dtype=bool).reshape(len(index), -1)
                        .astype(np.float64) if index else np.empty(0))
        # One 0/1 byte per world selects a column's weights for scalar_margins;
        # None marks the all-ones column.
        self._selectors = [None if all(key) else key for key in index]
        self._equality_rows = np.array(equality_rows, dtype=int)
        self._required = np.array(required)[:, None]
        self._floor = np.array(floor)[:, None]

    def _achieved(self, w: np.ndarray) -> np.ndarray:
        """Achieved margin per constraint and row of w, as an (m, k) array.

        The signed slack the verdict rule judges: lhs - rhs, rhs - lhs for
        prob_lt, -|lhs - rhs| for equality; nan when undefined.
        """
        with np.errstate(**_QUIET):
            return self._read(w)

    def _read(self, w: np.ndarray) -> np.ndarray:
        """_achieved without an error state of its own: its caller enters _QUIET."""
        rows = w.reshape(-1, w.shape[-1])
        values = np.empty((self._n_values, len(rows)))
        if len(self.columns):
            np.matmul(self.columns, rows.T, out=values[len(self._consts):self._known])
        return self._margins_of(values)

    def _margins_of(self, values: np.ndarray) -> np.ndarray:
        """The (m, k) achieved margins of a value array whose mask-column rows
        are filled: the one arithmetic both summations share. Runs in its
        caller's error state (_QUIET)."""
        n_consts, known = len(self._consts), self._known
        if n_consts:
            values[:n_consts] = self._consts
        # Each distinct query side is divided once, into its own row.
        np.divide(values.take(self._ratio_num, axis=0), values.take(self._ratio_den, axis=0),
                  out=values[known:])
        achieved = values.take(self._first, axis=0)
        achieved -= values.take(self._second, axis=0)
        if self._equality_rows.size:
            achieved[self._equality_rows] = -np.abs(achieved.take(self._equality_rows, axis=0))
        return achieved

    def penalty(self, w: np.ndarray):
        """Sum of squared hinges, per row of w.

        An undefined conditional counts as a hinge of sqrt(UNDEFINED_PENALTY).
        A hinge past about 1e154 squares to an infinite penalty, which is
        returned as it is, without an overflow warning.
        """
        with np.errstate(**_QUIET):
            return self._penalty(w)

    def _penalty(self, w: np.ndarray):
        """penalty without an error state of its own: its caller enters _QUIET."""
        achieved = self._read(w)
        hinges = np.subtract(self._required, achieved, out=achieved)
        np.maximum(hinges, 0.0, out=hinges)
        hinges[np.isnan(hinges)] = _UNDEFINED_HINGE
        # Summed over the constraint axis: for a block of k > 1 rows that
        # adds one constraint at a time, in order, for every row.
        total = np.square(hinges, out=hinges).sum(axis=0)
        return total if w.ndim > 1 else total[0]

    def screen(self, w: np.ndarray) -> _Screen:
        """The screen over the constraints weight vector w violates (see _Screen).

        A constraint is violated when its squared hinge at w is positive:
        its achieved margin is below its required one, or undefined.
        """
        violated = ~(self._achieved(w)[:, 0] >= self._required[:, 0])
        return _Screen(list(compress(self.constraints, violated)), len(self.constraints))

    def integer_differences(self, counts: np.ndarray):
        """Yield first - second of each constraint over integer weights, exactly.

        counts is a (P, n) int64 block of nonnegative weight vectors, at any
        scale, since every query side is a ratio. Each value row is then
        num / den + const: 0 / 1 + c for a constant c, counts @ mask for a
        mask column, and (counts @ num) / (counts @ den) for a query side. For
        the constraint's first and second rows this yields (x, y, k) with
        first - second = x / y + k: x = fn * sd - sn * fd and y = fd * sd,
        int64 arrays of shape (P,) (ints when both sides are constant), and
        k = fc - sc an exact Fraction. The sides are those of the achieved
        margin: prob_lt's are swapped, and equality takes -|x / y + k|. y = 0
        exactly where a side is undefined.

        Exact while every row sum s is below 2**31. The mask sums are one
        float64 product, columns @ counts.T (numpy's integer matmul does not
        use BLAS), cast back to int64: every partial sum is an integer of at
        most s < 2**53, so float64 holds it exactly. |x| and y are at most
        s**2 < 2**62, so the products stay exact in int64. Counts beyond the
        bound, such as Python ints, must not take this path.
        """
        # Imported here, on the grid path alone, so that no CLI command loads it.
        from fractions import Fraction

        parts = [(0, 1, Fraction(c)) for c in self._consts[:, 0].tolist()]
        masses = self.columns.reshape(-1, counts.shape[-1]) @ counts.T.astype(np.float64)
        parts += [(mass, 1, 0) for mass in masses.astype(np.int64)]
        parts += [(parts[num][0], parts[den][0], 0)
                  for num, den in zip(self._ratio_num.tolist(), self._ratio_den.tolist())]
        for f, s in zip(self._first.tolist(), self._second.tolist()):
            (fn, fd, fc), (sn, sd, sc) = parts[f], parts[s]
            yield fn * sd - sn * fd, fd * sd, fc - sc

    def named_margins(self, w: np.ndarray) -> dict[str, float]:
        """Achieved margin of one weight vector per constraint name (see _names)."""
        return dict(zip(_names(self.constraints), self.margins(w).tolist()))

    def margins(self, w: np.ndarray) -> np.ndarray:
        """Achieved margin per constraint; nan when undefined.

        Shape (m,) for one weight vector, (m, k) for a (k, n) block.
        """
        achieved = self._achieved(w)
        return achieved if w.ndim > 1 else achieved[:, 0]

    def scalar_margins(self, w: np.ndarray) -> np.ndarray:
        """margins read with correctly rounded sums; nan when undefined.

        w is one distribution's weights (n,) or a block of them (k, n), and
        the shape is margins': (m,) or (m, k). Only the mask-column rows of
        the value array are summed otherwise: each is the math.fsum of the
        weights its column selects, except the all-ones column, which reads
        1.0, the total a distribution has by contract. The constants, ratio
        divisions, first - second and equality's -|.| are margins' own
        (_margins_of). So P(target) is target's mass undivided, as
        prob.probability reads it, P(target | given) is one division of two
        fsums, as in prob.conditional, and a ratio over a column of mass 0
        is 0/0 = nan. A side reads bitwise as those functions do, save a
        side whose given, or whose unconditional target, is every world:
        there the reference reads the fsum of all weights, which may miss
        1.0 by a few ulps, and this reads 1.0.
        """
        rows = w.reshape(-1, w.shape[-1]).tolist()
        values = np.empty((self._n_values, len(rows)))
        # A list of constant sides alone has no mask-column row to fill.
        for i, key in enumerate(self._selectors, len(self._consts)):
            values[i] = 1.0 if key is None else [math.fsum(compress(row, key)) for row in rows]
        with np.errstate(**_QUIET):
            achieved = self._margins_of(values)
        return achieved if w.ndim > 1 else achieved[:, 0]

    def satisfied(self, w: np.ndarray):
        """Whether every constraint holds by the verdict rule, per row of w."""
        ok = (self._achieved(w) >= self._floor).all(axis=0)
        return ok if w.ndim > 1 else ok[0]

    def scalar_satisfied(self, w: np.ndarray):
        """satisfied over scalar_margins: whether every constraint holds by
        the verdict rule, a bool for one distribution (n,) and a (k,) array
        for a block (k, n). A nan (undefined) margin never holds."""
        ok = (self.scalar_margins(w.reshape(-1, w.shape[-1])) >= self._floor).all(axis=0)
        return ok if w.ndim > 1 else bool(ok[0])


class _Screen(CompiledConstraints):
    """A lower bound on the full penalty, read over some of the constraints.

    constraints is a sub-list of a list of m constraints, compiled on its
    own, with each required margin lowered by an allowance g. penalty reads
    the kept constraints' squared hinges against the lowered margins, as a
    sum B per row, and least turns the least B of a block into a value that
    no row's full penalty P, as CompiledConstraints.penalty reads it over
    all m, is below. Squared hinges are nonnegative, so any sub-list bounds
    P; the allowance covers the rounding by which the two readings differ.
    A screen is read only through least: the satisfied and screen it
    inherits would judge against floors that were never lowered.

    The allowance. Let u = 2**-53, n the worlds and w >= 0. A mask column
    sums nonnegative terms, in whatever order and shape BLAS takes, beside
    whichever columns its own compile deduplicated, so each reading is
    within a factor 1 +- gamma(n - 1) of the exact sum, where
    gamma(k) = k u / (1 - k u). A query side is one division of two such
    sums, and its exact value lies in [0, 1], num being a subset of den; so
    it reads within gamma(2n - 1) of it. A constant reads exactly. The
    margin's subtraction and the hinge's required - achieved add a rounding
    each, relative to operands at most M: the largest of |required| and the
    sides' magnitudes, |c| for a constant c and 1 for a query side. So each
    reading of a hinge is within (4n + 3) u M of the exact hinge, to first
    order, and the two readings differ by less than (8n + 6) u M; g =
    16 (n + 1) u M covers that and the rounding of required - g twice over.
    max(., 0) is monotone, so the screen's hinge, lowered by g and then
    rounded, is at most (1 + u) times the full kernel's. Both readings find
    the same sides undefined, since a column sums to 0 exactly when all its
    weights are 0, and count each as sqrt(UNDEFINED_PENALTY).

    The sums. P adds the squares of all m constraints and B those of s <= m,
    each square and addition rounding by a factor within 1 +- u, so
    B (1 - (2m + 3) u) <= P. A row's bound is B (1 - (2m + 6) u): the spare
    3u covers its product's rounding and the squares that underflow below
    2**-1022, each off by at most 2**-1075, far below u B once the product
    is at least 2**-900; a smaller product reads 0. A product above 2**1000
    reads 2**1000, which P exceeds even when B overflowed to inf: a screened
    square, or their sum, is then near the float limit, and so is P.

    The least. least takes the block's least B first, then scales and clamps
    that one float. A rounded product by a positive constant is monotone in
    B, and so are both clamps, so this is bitwise the least of the rows'
    bounds, each scaled and clamped on its own.
    """

    def __init__(self, constraints, m: int):
        super().__init__(constraints)
        magnitude = [
            max(abs(_required(c)), *(abs(s.const) if s.is_const else 1.0 for s in (c.lhs, c.rhs)))
            for c in self.constraints]
        # n is the worlds, 0 for a list with no query side, which both
        # readings read alike.
        n = self.columns.shape[-1]
        allowance = 16 * (n + 1) * 2.0**-53 * np.array(magnitude)
        self._required = (self._required[:, 0] - allowance)[:, None]
        self._shrink = 1.0 - (2 * m + 6) * 2.0**-53

    def least(self, w: np.ndarray) -> float:
        """A value that no row of a block w has a full penalty below."""
        with np.errstate(**_QUIET):
            return self._least(w)

    def _least(self, w: np.ndarray) -> float:
        """least without an error state of its own: its caller enters _QUIET."""
        least = float(self._penalty(w).min()) * self._shrink
        return 0.0 if least < 2.0**-900 else min(least, 2.0**1000)


def _names(constraints) -> list[str]:
    """Each constraint's label, or c<i> for an unlabelled one at index i."""
    return [c.label or f"c{i}" for i, c in enumerate(constraints)]


def _required(c: ProbConstraint) -> float:
    """Required achieved margin: -m for equality (|lhs-rhs| <= m), m otherwise."""
    return -c.margin if c.kind == "equality" else c.margin


def _compiled(dist: JointDistribution, cs: ConstraintSet) -> CompiledConstraints:
    if dist.space != cs.space:
        raise SpaceMismatchError("distribution and constraint set use different spaces")
    return CompiledConstraints(cs.constraints)


def penalty(dist: JointDistribution, cs: ConstraintSet) -> float:
    """Sum of squared hinge violations; zero iff every constraint holds at its margin."""
    return float(_compiled(dist, cs).penalty(dist.weights))


def achieved_margins(dist: JointDistribution, cs: ConstraintSet) -> dict[str, float]:
    return _compiled(dist, cs).named_margins(dist.weights)


def is_satisfied(dist: JointDistribution, cs: ConstraintSet) -> bool:
    """Float verdict: strict kinds strictly past their margin, weak and
    equality kinds within BOUNDARY_TOLERANCE of it."""
    return bool(_compiled(dist, cs).satisfied(dist.weights))


#: Line-search step multiples along the combination of a sweep's improving moves.
LINE_SEARCH_STEPS = np.array([[1.0], [2.0], [4.0], [8.0], [16.0]])

#: The exponents of a single move's two factors, (1 + delta) ** +-1.
_GROW_SHRINK = np.array([1.0, -1.0])


def coordinate_descent(x: np.ndarray, objective, pin):
    """Derivative-free block descent over the world weights x, normalised.

    objective scores one point (n,) or every row of a block (k, n) in one
    call, never below 0, as a penalty does; pin is None or a marginal pin
    (T, c), under which every candidate is normalised per block (see
    _normalise). Each sweep scores the 2n single-coordinate moves
    (_single_moves) as one block, then a line search along the combination
    of every improving move (_scale_move at LINE_SEARCH_STEPS times delta)
    as a second block, and keeps the best candidate of both if it lowers the
    objective, the single move on a tie; a sweep without improvement halves
    delta, which starts at 0.5. A sweep whose best single move reads 0 keeps
    it and ends the descent without the line search, since no line row
    could beat it. It runs at most REFINE_STEPS sweeps; a start at objective
    0 returns at once. Returns (x, objective(x)), never above the start
    value.
    """
    start = objective(x)
    if start == 0.0:
        return x, start
    n = x.shape[0]
    x0, best, delta = x, start, 0.5
    for _ in range(REFINE_STEPS):
        cands = _single_moves(x, delta, pin)
        scores = objective(cands)
        improving = scores < best
        if not improving.any():
            del cands
            delta *= 0.5
            if delta < 1e-7:
                break
            continue
        j = int(scores.argmin())
        # No line row reads below 0, and a tie keeps the single move, so the
        # line search could not change this sweep's result.
        if scores[j] == 0.0:
            x, best = cands[j].copy(), scores[j]
            break
        up, down = scores[:n], scores[n:]
        signs = (improving[:n] & (up <= down)).astype(float)
        signs -= improving[n:] & (down < up)
        line = _scale_move(x, signs[None, :], delta * LINE_SEARCH_STEPS, pin)
        line_scores = objective(line)
        k = int(line_scores.argmin())
        # The kept point is a copy, so no block outlives its sweep.
        if line_scores[k] < scores[j]:
            x, best = line[k].copy(), line_scores[k]
        else:
            x, best = cands[j].copy(), scores[j]
        del cands, line
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


def _single_moves(x: np.ndarray, delta: float, pin) -> np.ndarray:
    """The 2n single-coordinate moves of x, as one normalised (2n, n) block.

    Row i has weight i times 1 + delta and row n + i has it divided by
    1 + delta: 2n copies of x whose two diagonals are x times (1 + delta)
    ** +-1, normalised by _normalise. The rows are the same floats as
    _scale_move(x, [I; -I], delta, pin), whose factors off the diagonal
    are (1 + delta) ** 0 = 1, without its 2n**2 powers.
    """
    n = x.shape[0]
    block = np.empty((2 * n, n))
    block[:] = x
    grow, shrink = (1.0 + delta) ** _GROW_SHRINK
    # The diagonals of the two halves, as strided views of the flat block.
    flat = block.reshape(-1)
    np.multiply(x, grow, out=flat[:n * n:n + 1])
    np.multiply(x, shrink, out=flat[n * n::n + 1])
    return _normalise(block, pin)


#: Coordinate-descent sweeps per refine.
REFINE_STEPS = 240

#: Most bytes one block of descent moves may hold. A sweep scores the 2n
#: single-coordinate moves of a point over n worlds as one (2n, n) float64
#: block, 16 n**2 bytes. The block and its normalised copy make about two
#: such blocks at a sweep's peak, about three under a marginal pin
#: (_normalise); no block outlives its sweep. 64 MiB admits up to 2 048
#: worlds (11 atoms), and a larger search is refused.
_MAX_MOVE_BLOCK_BYTES = 2**26


def _check_search_size(n: int) -> None:
    """Raise ValueError if a descent over n worlds would pass the move-block bound."""
    if 16 * n * n > _MAX_MOVE_BLOCK_BYTES:
        raise ValueError(
            f"a search over {n} worlds descends over {2 * n} x {n} blocks of moves, "
            f"{16 * n * n >> 20} MiB each, past the bound of {_MAX_MOVE_BLOCK_BYTES >> 20} MiB "
            f"({math.isqrt(_MAX_MOVE_BLOCK_BYTES // 16)} worlds)")


def _stall_bound(constraints) -> float:
    """tau, the square of the least positive required margin; 0 when none is positive.

    A best penalty below tau marks a search stalled near a model (find_model).
    """
    return min((c.margin for c in constraints if _required(c) > 0), default=0.0) ** 2


def find_model(cs: ConstraintSet, config: SearchConfig) -> FindModelResult:
    """Seeded random restarts + coordinate descent; deterministic given the seed.

    Samples are drawn by sample_blocks in blocks of whole BATCH_SIZE batches
    (the first block is one batch, later ones double up to LOOKAHEAD_VALUES
    floats) and each block is scored with one penalty call, on its raw rows:
    every query side is a ratio, so only the sample a refine starts from is
    normalised. The block is then walked batch by batch: a batch's best
    sample is refined for REFINE_STEPS sweeps if it beats the best penalty
    so far, or if a stalled search is due a restart (below), and the search
    stops after the first refine that leaves a satisfied model. samples_used
    counts whole batches walked, not rows drawn ahead. The first batch
    always refines, and its result is the first best model, even when every
    penalty overflows to inf.

    A refine that leaves a finite best and no satisfied model keeps a
    screen (CompiledConstraints.screen): the constraints violated at the
    best model, compiled on their own, one compile per screen. Each later
    block asks the screen once: if its least screened bound (_Screen.least,
    where its rounding allowance is derived) is at least the best penalty,
    the block is skipped unscored and counted whole in samples_used;
    otherwise it takes one full penalty call and is walked as without the
    screen. No row's full penalty is below its bound, so no row of a
    skipped block beats the best, and a batch whose own least bound is at
    least the best is never refined either: every result is the same to
    the bit. A search whose first refine finds a model builds no screen.

    A stalled search restarts. Let tau be the square of the least positive
    required margin (_stall_bound), 0 when no margin is positive. The first
    refine that leaves no satisfied model and a best penalty below tau
    marks the search stalled near a model: descent met most constraints,
    typically on the simplex boundary, short of the rest, and no raw sample
    of a later batch reads a penalty that low, so by the rule above it
    would never refine again. The batches 1, 2, 4, 8, ... after the
    stalled one then each refine their best sample whatever its raw
    penalty, and a block holding such a batch is scored in full, never
    screened. That is at most floor(log2 B) + 1 extra refines for a budget
    of B batches, 8 at the default budget. tau is worked out only after a
    refine that finds no model, so a search whose first refine finds one
    does no new work, and with tau = 0 the rule is off. tau does not
    mistake an exhausted search for a stalled one: two strict constraints
    that contradict each other at margins m1 and m2, such as
    P(a|b) - P(a|~b) > m1 and P(a|~b) - P(a|b) > m2, have hinges summing to
    at least m1 + m2 at every distribution, so the penalty stays at
    (m1 + m2)**2 / 2 >= 2 tau or more everywhere.

    An exact marginal equality P(T) = c (see _marginal_pin; only the first
    one in the set) is met by construction: the search runs only over
    distributions with P(T) = c, every sampled row and every descent
    candidate normalised per block by _normalise. The constraint stays in
    the compiled set, so found still means every constraint holds. Any
    further exact equality is an ordinary constraint.

    A space whose (2n, n) block of descent moves would pass
    _MAX_MOVE_BLOCK_BYTES, more than 2 048 worlds, raises ValueError before
    any draw.

    found is the float verdict CompiledConstraints.satisfied on the best
    model. Returns found=False after budget exhaustion, carrying the
    best-found penalty and distribution (signals "not found within budget",
    never proven infeasibility). The best penalty is non-increasing over the
    run.
    """
    _check_search_size(cs.space.world_count)
    compiled = CompiledConstraints(cs.constraints)
    pin = _marginal_pin(cs.constraints)
    rng = np.random.default_rng(config.seed)
    n = cs.space.world_count
    best_w, best_penalty = None, float("inf")
    found = False
    samples_used = 0
    restarts_refined = 0
    screen = None
    # The batch that stalled the search, s, counting batches from 0, and the
    # next batch due a restart: s + 1, s + 2, s + 4, ..., none before a stall.
    stalled_at, due = None, math.inf

    # One error state for the whole search: its block penalties, descent
    # objective and screen readings run in it (_penalty, _Screen._least).
    with np.errstate(**_QUIET):
        for block in sample_blocks(rng, n, config.max_samples):
            if pin is not None:
                block = _normalise(block, pin)
            # No row of this block can beat the best, and no batch of it is due a
            # restart (batch b starts at row b * BATCH_SIZE of the stream, since
            # every batch but the budget's last is whole): skip it unscored.
            if (screen is not None and due * BATCH_SIZE >= samples_used + len(block)
                    and screen._least(block) >= best_penalty):
                samples_used += len(block)
                continue
            penalties = compiled._penalty(block)
            for start in range(0, len(block), BATCH_SIZE):
                here = samples_used // BATCH_SIZE
                batch = penalties[start:start + BATCH_SIZE]
                samples_used += len(batch)
                idx = start + int(batch.argmin())
                restart = here == due
                if restart:
                    due += due - stalled_at
                # The first batch always refines: every penalty can overflow to inf.
                if best_w is not None and not penalties[idx] < best_penalty and not restart:
                    continue
                refined, refined_penalty = coordinate_descent(
                    _normalise(block[idx], pin), compiled._penalty, pin)
                restarts_refined += 1
                if best_w is None or refined_penalty < best_penalty:
                    best_w, best_penalty = refined, refined_penalty
                    found = bool(compiled.satisfied(best_w))
                    if found:
                        break
                    if best_penalty < math.inf:
                        screen = compiled.screen(best_w)
                if stalled_at is None and best_penalty < _stall_bound(cs.constraints):
                    stalled_at, due = here, here + 1
            if found:
                break

    dist = JointDistribution.from_unnormalized(cs.space, best_w)
    return FindModelResult(
        found=found,
        distribution=dist,
        penalty=float(best_penalty),
        achieved_margins=compiled.named_margins(dist.weights),
        samples_used=samples_used,
        restarts_refined=restarts_refined,
    )


class GridBudgetError(ValueError):
    """grid_enumerate refused an over-budget space or resolution."""


MAX_GRID_WORLDS = 8
MAX_GRID_RESOLUTION = 20

#: Grid points grid_enumerate decides per pass. A pass's temporaries, a few
#: int64 rows per constraint, then stay a few tens of KiB, which the
#: allocator reuses. Rows over a whole grid (19 448 points at 8 worlds and
#: resolution 10) are mapped afresh on every call: about 950 page faults,
#: a third of the call's time.
GRID_CHUNK = 4096


def _compositions(total: int, parts: int) -> np.ndarray:
    """All rows of `parts` nonnegative ints summing to `total`, lexicographic.

    A (comb(total + parts - 1, parts - 1), parts) int64 array, built in numpy
    one part at a time. The prefixes of j parts are kept in lexicographic
    order, each with the total it leaves; each prefix branches on its next
    value 0..left, in ascending order, so the longer prefixes are in
    lexicographic order too. The last part takes what is left. A prefix's
    rows are contiguous in the output, one per composition of what it leaves
    into the remaining parts, so column j is each prefix's value repeated
    that many times.
    """
    out = np.empty((math.comb(total + parts - 1, parts - 1), parts), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for j in range(parts - 1):
        branches = left + 1
        firsts = np.repeat(np.cumsum(branches) - branches, branches)
        value = np.arange(len(firsts), dtype=np.int64) - firsts
        left = np.repeat(left, branches) - value
        rest = parts - j - 2
        completions = np.array([math.comb(r + rest, rest) for r in range(total + 1)])
        out[:, j] = np.repeat(value, completions[left])
    out[:, -1] = left
    return out


def grid_enumerate(cs: ConstraintSet, resolution: int) -> list[list[Fraction]]:
    """Enumerate all rational weight vectors k/resolution satisfying cs, exactly.

    Judges every point by the verdict rule of CompiledConstraints in integer
    arithmetic: strict kinds with exact strict inequality, weak kinds with
    >=, equality within its margin. Restricted to small spaces and
    resolutions: resolution must be an int (not a bool) in
    [1, MAX_GRID_RESOLUTION], and the space at most MAX_GRID_WORLDS worlds;
    anything else raises GridBudgetError before any work.

    With R = resolution, the points' counts are the compositions of R into
    n parts, built in numpy in lexicographic order (_compositions), and are
    decided a block of GRID_CHUNK points at a time, with no per-point loop.
    CompiledConstraints.integer_differences gives each constraint's
    first - second as X / Y + k over them (|X|, Y <= R**2, k an exact
    constant); its mask sums are a float64 product, exact since every row
    sums to R <= 20. The achieved margin is s * (X / Y + k) for s = 1,
    and the min over s in (1, -1) for equality; each sign s holds iff
    s * X >= lo[Y], where lo[Y] = floor(t * Y) + 1 for strict kinds and
    ceil(t * Y) for weak ones, with the threshold t = required - s * k one
    Fraction per constraint. Y = 0 is an undefined conditional, which fails
    its constraint.
    """
    from fractions import Fraction

    if isinstance(resolution, bool) or not isinstance(resolution, int):
        raise GridBudgetError(
            f"grid resolution must be an int, got {type(resolution).__name__}"
        )
    n = cs.space.world_count
    if n > MAX_GRID_WORLDS:
        raise GridBudgetError(f"grid enumeration limited to {MAX_GRID_WORLDS} worlds")
    if resolution > MAX_GRID_RESOLUTION or resolution < 1:
        raise GridBudgetError(
            f"grid resolution must be in [1, {MAX_GRID_RESOLUTION}]"
        )
    compiled = CompiledConstraints(cs.constraints)
    points = _compositions(resolution, n)
    # k does not depend on the counts, so the thresholds are read once, from
    # an empty block.
    tests = [
        [(s, _lower_bounds(Fraction(_required(c)) - s * k, c.kind in STRICT_KINDS, resolution))
         for s in ((1, -1) if c.kind == "equality" else (1,))]
        for c, (_, _, k) in zip(cs.constraints, compiled.integer_differences(points[:0]))
    ]
    ok = np.ones(len(points), dtype=bool)
    for start in range(0, len(points), GRID_CHUNK):
        keep = ok[start:start + GRID_CHUNK]
        differences = compiled.integer_differences(points[start:start + GRID_CHUNK])
        for (x, y, _), signs in zip(differences, tests):
            for s, lo in signs:
                keep &= s * x >= lo[y]
    fractions = [Fraction(k, resolution) for k in range(resolution + 1)]
    return [[fractions[k] for k in point] for point in points[ok].tolist()]


def _lower_bounds(t: Fraction, strict: bool, resolution: int) -> np.ndarray:
    """Least integer X with X / Y > t (strict) or >= t, for each Y in [0, R**2].

    Clipped to +-(R**2 + 1), beyond every |X| <= R**2, so no verdict moves and
    int64 cannot overflow; Y = 0, an undefined conditional, gets R**2 + 1,
    which no X reaches. t is first clamped to +-(R**2 + 2): past that, every
    bound for Y >= 1 clips to the same end, so the array does not change.
    """
    limit = resolution**2 + 1
    p, q = t.numerator, t.denominator
    if abs(p) > (limit + 1) * q:
        p, q = (limit + 1 if p > 0 else -limit - 1), 1
    ys = range(1, limit)
    bounds = [p * y // q + 1 for y in ys] if strict else [-(-p * y // q) for y in ys]
    lo = np.array([limit, *bounds], dtype=np.int64)
    return np.clip(lo, -limit, limit, out=lo)
