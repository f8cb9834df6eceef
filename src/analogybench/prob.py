"""Finite probability spaces over propositional atoms.

A space with n atoms has 2**n worlds; world index bit k encodes the truth of
atom k. Distributions are dense weight vectors over worlds. All types are
immutable after construction and all operations are pure functions.

probability and conditional are the scalar reference, independent of the
compiled kernel in finder: confirm, the CLI's confirmation degrees and the
tests read them. Each sum of selected weights is correctly rounded
(math.fsum): the float nearest the exact sum, whatever numpy's summation
order. The sum runs at Python level, over the weights as a list and the mask
as one 0/1 byte per world, so its cost grows with the number of worlds; the
batched kernel in finder serves the larger spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import fsum, isfinite

import numpy as np

from . import formula as _formula

MAX_ATOMS = 20
SUM_TOLERANCE = 1e-12
DEFAULT_EXTREMALITY_EPS = 1e-9


class ProbError(ValueError):
    """Base class for errors raised by this package's probability core."""


class SpaceMismatchError(ProbError):
    """Operands defined over different world spaces."""


class UndefinedConditionalError(ProbError):
    """Conditioning on a zero-probability event.

    Distinct from structural errors: callers performing condition checks must
    surface this as "condition inapplicable" rather than as a failure.
    """


class InvalidDistributionError(ProbError):
    """Weight vector violates nonnegativity or normalization."""


@dataclass(frozen=True)
class WorldSpace:
    """Ordered list of atoms fixing a canonical enumeration of 2**n worlds.

    Each atom name matches formula's atom pattern, [A-Za-z_][A-Za-z0-9_]*,
    so any atom of the space can be named in a formula.
    """

    atoms: tuple[str, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("a world space needs at least one atom")
        if len(atoms) > MAX_ATOMS:
            raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {len(atoms)}")
        seen = set()
        for name in atoms:
            if not isinstance(name, str) or not _formula._ATOM.fullmatch(name):
                raise ValueError(f"atom name {name!r} does not match {_formula._ATOM.pattern}")
            if name in seen:
                raise ValueError(f"duplicate atom name {name!r}")
            seen.add(name)

    @property
    def world_count(self) -> int:
        return 1 << len(self.atoms)

    def index(self, name: str) -> int:
        try:
            return self.atoms.index(name)
        except ValueError:
            raise KeyError(f"unknown atom {name!r}") from None

    def atom_mask(self, name: str) -> np.ndarray:
        """Boolean mask over world indices where the named atom is true."""
        k = self.index(name)
        mask = ((np.arange(self.world_count) >> k) & 1).astype(bool)
        mask.flags.writeable = False
        return mask

    def world_description(self, world: int) -> dict[str, bool]:
        return {a: bool((world >> k) & 1) for k, a in enumerate(self.atoms)}


class Proposition:
    """A boolean formula over atoms, evaluated as a set of worlds."""

    __slots__ = ("space", "mask", "text")

    def __init__(self, space: WorldSpace, mask: np.ndarray, text: str | None = None):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (space.world_count,):
            raise ValueError("mask length must equal the space's world count")
        mask = mask.copy()
        mask.flags.writeable = False
        self.space = space
        self.mask = mask
        self.text = text

    @classmethod
    def atom(cls, space: WorldSpace, name: str) -> "Proposition":
        return cls(space, space.atom_mask(name), name)

    @classmethod
    def parse(cls, space: WorldSpace, text: str) -> "Proposition":
        unknown: set[str] = set()
        mask = _eval_node(_formula.parse(text), space, unknown)
        if unknown:
            raise _formula.FormulaError(
                f"unknown atom(s) {sorted(unknown)} in formula {text!r}"
            )
        return cls(space, mask, text)

    @classmethod
    def tautology(cls, space: WorldSpace) -> "Proposition":
        return cls(space, np.ones(space.world_count, dtype=bool), "⊤")

    @classmethod
    def contradiction(cls, space: WorldSpace) -> "Proposition":
        return cls(space, np.zeros(space.world_count, dtype=bool), "⊥")

    @property
    def extension(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.flatnonzero(self.mask))

    def __invert__(self) -> "Proposition":
        text = f"!({self.text})" if self.text else None
        return Proposition(self.space, ~self.mask, text)

    def __and__(self, other: "Proposition") -> "Proposition":
        _require_same_space(self.space, other.space)
        text = None
        if self.text and other.text:
            text = f"({self.text}) & ({other.text})"
        return Proposition(self.space, self.mask & other.mask, text)

    def __or__(self, other: "Proposition") -> "Proposition":
        _require_same_space(self.space, other.space)
        text = None
        if self.text and other.text:
            text = f"({self.text}) | ({other.text})"
        return Proposition(self.space, self.mask | other.mask, text)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Proposition):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.mask, other.mask))

    def __hash__(self):
        return hash((self.space, self.mask.tobytes()))

    def __repr__(self):
        label = self.text or f"<{np.count_nonzero(self.mask)} worlds>"
        return f"Proposition({label})"


def _eval_node(node: tuple, space: WorldSpace, unknown: set[str]) -> np.ndarray:
    """The worlds where a formula tree holds; an atom not in space, added to
    unknown, holds in none."""
    kind = node[0]
    if kind == "atom":
        if node[1] in space.atoms:
            return space.atom_mask(node[1])
        unknown.add(node[1])
        return np.zeros(space.world_count, dtype=bool)
    if kind == "not":
        return ~_eval_node(node[1], space, unknown)
    left = _eval_node(node[1], space, unknown)
    right = _eval_node(node[2], space, unknown)
    return (left & right) if kind == "and" else (left | right)


class JointDistribution:
    """Nonnegative weights over worlds summing to one."""

    __slots__ = ("space", "weights")

    def __init__(self, space: WorldSpace, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (space.world_count,):
            raise InvalidDistributionError(
                f"expected {space.world_count} weights, got shape {w.shape}"
            )
        check_weights(w)
        w = w.copy()
        w.flags.writeable = False
        self.space = space
        self.weights = w

    @classmethod
    def uniform(cls, space: WorldSpace) -> "JointDistribution":
        n = space.world_count
        return cls(space, np.full(n, 1.0 / n))

    @classmethod
    def from_unnormalized(cls, space: WorldSpace, weights) -> "JointDistribution":
        return cls(space, normalised(weights))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.weights, other.weights))

    def __repr__(self):
        return f"JointDistribution(atoms={self.space.atoms}, weights={self.weights.tolist()})"


def check_weights(w: np.ndarray) -> None:
    """Raise InvalidDistributionError unless every row of w, one weight vector
    (n,) or a block (k, n), is finite, nonnegative and sums to 1 within
    SUM_TOLERANCE: the rules JointDistribution checks its weights by."""
    # nan and -inf fail w >= 0, and +inf makes a total infinite; the sign
    # check comes first so that inf - inf is never summed.
    if not (w >= 0).all():
        raise InvalidDistributionError("weights must be finite and nonnegative")
    for total in w.sum(axis=-1, keepdims=True).ravel().tolist():
        if not isfinite(total):
            raise InvalidDistributionError("weights must be finite and nonnegative")
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidDistributionError(f"weights sum to {total!r}, not 1")


def normalised(weights) -> np.ndarray:
    """Each row of weights, one vector (n,) or a block (k, n), divided by its
    own total; raises InvalidDistributionError for a row of nonpositive
    total mass.

    from_unnormalized divides one row so, and a block reads bitwise the
    rows it gives one at a time. The result is not checked:
    JointDistribution checks the weights it is given, and check_weights
    checks a block by the same rules.
    """
    w = np.asarray(weights, dtype=np.float64)
    totals = w.sum(axis=-1, keepdims=True)
    if (totals <= 0).any():
        raise InvalidDistributionError("cannot normalize nonpositive total mass")
    return w / totals


def _require_same_space(a: WorldSpace, b: WorldSpace) -> None:
    if a is not b and a != b:
        raise SpaceMismatchError(f"world spaces differ: {a.atoms} vs {b.atoms}")


def probability(dist: JointDistribution, a: Proposition) -> float:
    """Sum of weights of the worlds in a's extension, correctly rounded."""
    _require_same_space(dist.space, a.space)
    return fsum(compress(dist.weights.tolist(), a.mask.tobytes()))


def conditional(dist: JointDistribution, a: Proposition, given: Proposition) -> float:
    """P(a | given); raises UndefinedConditionalError when P(given) = 0.

    Numerator and denominator are each a correctly rounded sum, as in
    probability, and the quotient is one float division.
    """
    _require_same_space(dist.space, a.space)
    _require_same_space(dist.space, given.space)
    weights = dist.weights.tolist()
    denom = fsum(compress(weights, given.mask.tobytes()))
    if denom <= 0.0:
        raise UndefinedConditionalError(
            f"conditioning on zero-probability event {given!r}"
        )
    return fsum(compress(weights, (a.mask & given.mask).tobytes())) / denom


def entails(a: Proposition, b: Proposition) -> bool:
    """True iff a's extension is a subset of b's."""
    _require_same_space(a.space, b.space)
    return not bool(np.any(a.mask & ~b.mask))


def is_non_extremal(
    dist: JointDistribution, a: Proposition, eps: float = DEFAULT_EXTREMALITY_EPS
) -> bool:
    p = probability(dist, a)
    return eps < p < 1.0 - eps
