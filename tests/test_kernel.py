"""The compiled evaluation kernel and the verdict rule it shares with the grid."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from analogybench import (
    ConstraintSet,
    JointDistribution,
    ProbConstraint,
    Proposition,
    Side,
    WorldSpace,
    grid_enumerate,
    load_corpus,
    penalty,
)
from analogybench.confirmation import _judge
from analogybench.prob import UndefinedConditionalError, conditional, probability
from analogybench.finder import (
    ALL_KINDS,
    BATCH_SIZE,
    BOUNDARY_TOLERANCE,
    MAX_GRID_RESOLUTION,
    MAX_GRID_WORLDS,
    STRICT_KINDS,
    CompiledConstraints,
    _normalise,
    _required,
    _Screen,
    is_satisfied,
)

KINDS = sorted(ALL_KINDS)
RESOLUTION = 8  # dyadic grid: every point's weights are exact in float


def grid_points(parts: int, total: int):
    """All nonnegative integer tuples of length `parts` summing to `total`,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in grid_points(parts - 1, total - head):
            yield (head,) + tail


def fraction_side(side: Side, point, resolution: int) -> Fraction:
    """A side's exact value at a grid point in counts of 1/resolution.

    Raises ZeroDivisionError for a conditional on an event of mass 0.
    """
    if side.is_const:
        return Fraction(side.const)
    given = side.given
    num_mask = side.target.mask if given is None else side.target.mask & given.mask
    num = sum(k for k, t in zip(point, num_mask) if t)
    den = resolution if given is None else sum(k for k, g in zip(point, given.mask) if g)
    return Fraction(num, den)


def signed_slack(kind: str, d):
    """The achieved margin _holds judges, from d = lhs - rhs: -|d| for
    equality, -d for prob_lt, d otherwise."""
    if kind == "equality":
        return -abs(d)
    return -d if kind == "prob_lt" else d


def fraction_achieved(c: ProbConstraint, point, resolution: int) -> Fraction:
    d = fraction_side(c.lhs, point, resolution) - fraction_side(c.rhs, point, resolution)
    return signed_slack(c.kind, d)


def reference_grid(cs: ConstraintSet, resolution: int) -> list[list[Fraction]]:
    """grid_enumerate one point at a time in Fraction arithmetic.

    The per-point loop the integer grid replaced, kept as its reference:
    each side an exact Fraction ratio of the point's masses, each constraint
    judged by _holds with tolerance 0.
    """
    fractions = [Fraction(k, resolution) for k in range(resolution + 1)]
    satisfying = []
    for point in grid_points(cs.space.world_count, resolution):
        try:
            ok = all(
                _holds(c.kind, fraction_achieved(c, point, resolution), _required(c), 0)
                for c in cs.constraints
            )
        except ZeroDivisionError:  # an undefined conditional fails its constraint
            ok = False
        if ok:
            satisfying.append([fractions[k] for k in point])
    return satisfying


def required(c: ProbConstraint) -> float:
    return -c.margin if c.kind == "equality" else c.margin


def _holds(kind: str, achieved, required, tolerance: float):
    """The verdict rule on an achieved margin, float or exact.

    required is the constraint's _required margin. Strict kinds need
    achieved > required; cond_ge_cond and equality need
    achieved >= required - tolerance, with tolerance 0 in exact arithmetic.
    An undefined (nan) margin never holds. CompiledConstraints applies it as
    one comparison with its floor, grid_enumerate in integers.
    """
    if kind in STRICT_KINDS:
        return achieved > required
    return achieved >= required - tolerance


def exact_verdicts(cs: ConstraintSet, points: list[tuple[int, ...]]) -> np.ndarray:
    """Per grid point (in counts of 1/RESOLUTION), whether grid_enumerate keeps it."""
    kept = {tuple(int(f * RESOLUTION) for f in p) for p in grid_enumerate(cs, RESOLUTION)}
    return np.array([p in kept for p in points], dtype=bool)


@st.composite
def constraint_sets(draw, atoms=st.integers(2, 4), dyadic=False, constants_only=False,
                    constants=st.floats(-0.5, 1.5), empty=False):
    """Random constraint sets; dyadic ones use only P(target) and k/8 constants.

    Over a dyadic grid every side of a dyadic set is exact in float, so the
    float and the exact verdicts must agree even at the boundary. Other sets
    draw constants from `constants`, by default in [-0.5, 1.5], and margins
    up to 0.3 or 1e-6, mostly not dyadic; a constant on both sides or a
    conditional on an event of mass 0 is allowed. A constants_only set has
    no query side at all; with empty, a proposition is the empty set half
    the time, which many worlds would almost never draw.
    """
    space = WorldSpace(tuple(f"a{i}" for i in range(draw(atoms))))
    n = space.world_count
    eighths = st.integers(0, RESOLUTION).map(lambda k: k / RESOLUTION)

    def prop():
        if empty and draw(st.booleans()):
            return Proposition(space, np.zeros(n, dtype=bool))
        return Proposition(space, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))

    def side():
        forms = ["const"] if constants_only else ["const", "prob"] if dyadic else [
            "const", "prob", "cond"]
        form = draw(st.sampled_from(forms))
        if form == "const":
            return Side(const=draw(eighths if dyadic else constants))
        if form == "prob":
            return Side(target=prop())
        return Side(target=prop(), given=prop())

    margin = eighths.filter(lambda m: m <= 0.5) if dyadic else (
        st.floats(0.0, 0.3) | st.just(1e-6))
    count = draw(st.integers(1, 5))
    return ConstraintSet(space, [
        ProbConstraint(draw(st.sampled_from(KINDS)), side(), side(), margin=draw(margin))
        for _ in range(count)
    ])


@st.composite
def dyadic_rows(draw, n: int):
    """Weight vectors k/1024: every sum of them is exact in float."""
    cuts = sorted(draw(st.lists(st.integers(0, 1024), min_size=n - 1, max_size=n - 1)))
    return np.diff([0, *cuts, 1024]) / 1024


def scalar_margin(c: ProbConstraint, dist: JointDistribution) -> float:
    """A constraint's achieved margin from prob.conditional; nan when undefined."""
    def value(side: Side) -> float:
        if side.is_const:
            return side.const
        if side.given is None:
            return probability(dist, side.target)
        return conditional(dist, side.target, side.given)

    try:
        return signed_slack(c.kind, value(c.lhs) - value(c.rhs))
    except UndefinedConditionalError:
        return float("nan")


def reads_the_total(cs: ConstraintSet) -> bool:
    """Whether some side's given, or some unconditional target, is every world."""
    return any(
        (s.target if s.given is None else s.given).mask.all()
        for c in cs.constraints for s in (c.lhs, c.rhs) if not s.is_const
    )


class TestFusedMargins:
    # Dyadic weights k/1024 make every mask sum exact in float, so the fused
    # kernel and the scalar reference divide the same numbers.
    @settings(max_examples=80, deadline=None)
    @given(cs=st.sampled_from([False, True]).flatmap(
        lambda const: constraint_sets(constants_only=const)), data=st.data())
    def test_margins_match_scalar_conditionals(self, cs, data):
        n = cs.space.world_count
        block = np.array(data.draw(st.lists(dyadic_rows(n), min_size=1, max_size=6)))
        compiled = CompiledConstraints(cs.constraints)
        margins = compiled.margins(block)
        assert margins.shape == (len(cs.constraints), len(block))
        for j, row in enumerate(block):
            dist = JointDistribution(cs.space, row)
            expected = np.array([scalar_margin(c, dist) for c in cs.constraints])
            for got in (margins[:, j], compiled.margins(row)):
                np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
                defined = ~np.isnan(expected)
                assert np.all(np.abs(got[defined] - expected[defined]) <= 1e-15)
            # The scalar judge reads the same achieved margins on the scalar
            # path, exactly, and is inapplicable exactly where they are nan.
            judged = _judge(dist, compiled)
            np.testing.assert_array_equal([r.margin for r in judged], expected)
            assert [not r.applicable for r in judged] == np.isnan(expected).tolist()
        # Every sum is exact on dyadic rows, so the two summations fill the
        # same value rows and the one arithmetic after them gives the same
        # bits, nan where nan.
        assert compiled.scalar_margins(block).tobytes() == margins.tobytes()

    # On raw exponential rows, normalised, the kernel's matrix product
    # rounds in its own order, but _judge reads the kernel's rows with fsum
    # sums, as the reference does, so the margins agree exactly. A given of
    # every world, or an unconditional target of every world, reads 1.0 in
    # the kernel and the fsum of all weights in the reference, so such sets
    # are left out.
    @settings(max_examples=80, deadline=None)
    @given(cs=constraint_sets().filter(lambda cs: not reads_the_total(cs)),
           seed=st.integers(0, 2**32 - 1))
    def test_judge_matches_scalar_reference_on_raw_rows(self, cs, seed):
        compiled = CompiledConstraints(cs.constraints)
        rows = np.random.default_rng(seed).standard_exponential((4, cs.space.world_count))
        for row in rows:
            dist = JointDistribution.from_unnormalized(cs.space, row)
            expected = [scalar_margin(c, dist) for c in cs.constraints]
            judged = _judge(dist, compiled)
            np.testing.assert_array_equal([r.margin for r in judged], expected)
            assert [not r.applicable for r in judged] == np.isnan(expected).tolist()

    # scalar_satisfied is the verdict of _judge's results as one boolean, a
    # nan margin failing; on dyadic rows every sum is exact, so the block
    # kernel's satisfied reads the same verdict.
    @settings(max_examples=80, deadline=None)
    @given(cs=constraint_sets(), data=st.data())
    def test_scalar_satisfied_is_the_judged_verdict(self, cs, data):
        compiled = CompiledConstraints(cs.constraints)
        for row in data.draw(st.lists(dyadic_rows(cs.space.world_count), min_size=1,
                                      max_size=6)):
            dist = JointDistribution(cs.space, row)
            verdict = compiled.scalar_satisfied(dist.weights)
            assert verdict is all(r.holds for r in _judge(dist, compiled))
            assert verdict == compiled.satisfied(row)

    # Every query side is a ratio, and scaling by a power of two is exact in
    # float, so a scaled block reads bitwise the same values.
    @settings(max_examples=60, deadline=None)
    @given(cs=constraint_sets(), data=st.data(), power=st.sampled_from([-3, 5]))
    def test_scaled_rows_read_the_same(self, cs, data, power):
        n = cs.space.world_count
        block = np.array(data.draw(st.lists(dyadic_rows(n), min_size=1, max_size=6)))
        scaled = block * 2.0**power
        compiled = CompiledConstraints(cs.constraints)
        for w, v in ((block, scaled), (block[0], scaled[0])):
            assert compiled.margins(v).tobytes() == compiled.margins(w).tobytes()
            assert compiled.penalty(v).tobytes() == compiled.penalty(w).tobytes()
            np.testing.assert_array_equal(compiled.satisfied(v), compiled.satisfied(w))

    def test_every_kind_on_one_point(self, ab_space):
        a, b = Proposition.atom(ab_space, "a"), Proposition.atom(ab_space, "b")
        dist = JointDistribution(ab_space, [0.5, 0.25, 0.25, 0.0])
        constraints = [
            ProbConstraint(kind, Side(target=a, given=b), Side(target=a), margin=0.125)
            for kind in KINDS
        ] + [
            ProbConstraint("prob_gt", Side(target=a & b, given=a & b), Side(const=0.5)),
            ProbConstraint("equality", Side(const=0.25), Side(const=0.75)),
        ]
        got = CompiledConstraints(constraints).margins(dist.weights)
        expected = [scalar_margin(c, dist) for c in constraints]
        np.testing.assert_array_equal(got, expected)
        assert np.isnan(got[-2]) and got[-1] == -0.5


class TestBlockPenalty:
    # One weight vector is summed by a dot product and a block by a
    # matrix-vector product; their summation orders differ, and cancellation
    # in a hinge can magnify a last-bit difference. Dyadic weights make every
    # sum exact, so any difference left comes from the kernel's logic.
    @settings(max_examples=60, deadline=None)
    @given(cs=constraint_sets(), data=st.data())
    def test_each_block_row_matches_single_vector_penalty(self, cs, data):
        n = cs.space.world_count
        block = np.array(data.draw(st.lists(dyadic_rows(n), min_size=1, max_size=6)))
        batch = CompiledConstraints(cs.constraints).penalty(block)
        assert batch.shape == (block.shape[0],)
        for row, value in zip(block, batch):
            single = penalty(JointDistribution(cs.space, row), cs)
            assert abs(single - value) <= 1e-15 * max(abs(single), abs(value))

    def test_undefined_conditional_in_a_block(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        cs = [ProbConstraint("cond_gt_prob", Side(target=a, given=b), Side(target=a))]
        block = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        np.testing.assert_array_equal(CompiledConstraints(cs).penalty(block), [1.0, 0.0])

    def test_shared_masks_compile_to_one_column(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        compiled = CompiledConstraints([
            ProbConstraint("cond_gt_prob", Side(target=a, given=b), Side(target=a)),
            ProbConstraint("prob_lt", Side(target=b), Side(const=0.9)),
            ProbConstraint("cond_ge_cond", Side(target=b, given=a), Side(target=b)),
        ])
        # a & b, b and a: three distinct masks across five query sides, and
        # the all-ones column that P(a) and P(b) are divided by
        assert len(compiled.columns) == 4


def reference_plan(constraints) -> dict:
    """The compiled plan built in three passes over the sides, the reference.

    Constants are numbered first, in lhs-then-rhs order; then each side's
    (num, den) mask columns, deduplicated by mask bytes, numbered after the
    constants as they are first met; then each distinct (num, den) pair a
    ratio row, numbered after the columns as the achieved margin's first,
    then second, side reads it, after prob_lt's swap.
    """
    consts = [float(s.const) for c in constraints for s in (c.lhs, c.rhs) if s.is_const]
    const_rows = iter(range(len(consts)))
    masks, index = [], {}

    def column(mask):
        key = mask.tobytes()
        if key not in index:
            index[key] = len(consts) + len(masks)
            masks.append(mask)
        return index[key]

    def side(s):
        if s.is_const:
            return next(const_rows), None
        if s.given is None:
            return column(s.target.mask), column(np.ones_like(s.target.mask))
        return column(s.target.mask & s.given.mask), column(s.given.mask)

    sides = [(side(c.lhs), side(c.rhs)) for c in constraints]
    known = len(consts) + len(masks)
    ratios = {}

    def row(num, den):
        return num if den is None else ratios.setdefault((num, den), known + len(ratios))

    first, second = [], []
    for c, (lhs, rhs) in zip(constraints, sides):
        if c.kind == "prob_lt":
            lhs, rhs = rhs, lhs
        first.append(row(*lhs))
        second.append(row(*rhs))
    required = [_required(c) for c in constraints]
    return {
        "_consts": np.array(consts)[:, None],
        "columns": np.array(masks, dtype=np.float64),
        "_first": np.array(first, dtype=int),
        "_second": np.array(second, dtype=int),
        "_ratio_num": np.array([num for num, _ in ratios], dtype=int),
        "_ratio_den": np.array([den for _, den in ratios], dtype=int),
        "_equality_rows": np.array(
            [i for i, c in enumerate(constraints) if c.kind == "equality"], dtype=int),
        "_required": np.array(required)[:, None],
        "_floor": np.array([math.nextafter(r, math.inf) if c.kind in STRICT_KINDS
                            else r - BOUNDARY_TOLERANCE for c, r in zip(constraints, required)])[:, None],
        "_selectors": [None if all(key) else key for key in index],
        "_known": known,
        "_n_values": known + len(ratios),
    }


def assert_plan_is_the_reference(constraints):
    """Every plan array of the compile equals reference_plan's, bitwise."""
    compiled = CompiledConstraints(constraints)
    for name, want in reference_plan(constraints).items():
        got = getattr(compiled, name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (
                want.dtype, want.shape, want.tobytes()), name
        else:
            assert got == want, name


class TestCompilePlan:
    # The compile walks each constraint's sides once; its plan must be the
    # one the reference builds in three passes.
    @settings(max_examples=150, deadline=None)
    @given(cs=st.sampled_from([False, True]).flatmap(
        lambda const: constraint_sets(atoms=st.integers(1, 3), constants_only=const,
                                      empty=True)))
    def test_plan_is_the_reference(self, cs):
        assert_plan_is_the_reference(cs.constraints)

    def test_named_cases_are_the_reference(self, ab_space):
        a, b = Proposition.atom(ab_space, "a"), Proposition.atom(ab_space, "b")
        k = Side(const=0.25)
        cases = {
            # A prob_lt with two constant sides: constants are numbered
            # before the swap, the ratios after it.
            "prob_lt constants": [
                ProbConstraint("prob_lt", Side(const=0.5), Side(const=0.75)),
                ProbConstraint("prob_gt", Side(const=0.125), k)],
            "constants only": [ProbConstraint("equality", k, Side(const=0.5))],
            # Two query sides swapped: the rhs's ratio is numbered first.
            "prob_lt queries": [
                ProbConstraint("prob_lt", Side(target=a), Side(target=b, given=a))],
            "constant either side": [
                ProbConstraint("prob_gt", Side(target=a), k),
                ProbConstraint("prob_lt", k, Side(target=b, given=a)),
                ProbConstraint("prob_lt", Side(target=b), Side(target=a)),
                ProbConstraint("equality", Side(target=a, given=b), Side(const=0.5),
                               margin=0.01)],
            "repeated masks": [
                ProbConstraint("cond_gt_cond", Side(target=a, given=b), Side(target=a)),
                ProbConstraint("cond_ge_cond", Side(target=a, given=b), Side(target=a & b)),
                ProbConstraint("prob_lt", Side(target=a), Side(target=a, given=b)),
                ProbConstraint("equality", Side(target=a & b, given=a & b), Side(target=a))],
        }
        for constraints in cases.values():
            assert_plan_is_the_reference(constraints)
        assert CompiledConstraints(cases["constants only"]).columns.shape == (0,)


def uniform_ab_case(make):
    """The constraint make(a, b) over atoms a, b, and the uniform point of that space.

    At the uniform point P(a) = P(b) = P(a|b) = 1/2. On the grid of
    resolution 4 a P(target) side has denominator Y = 4 and a conditional
    given b has Y = 2, so every threshold below meets an integer t * Y.
    """
    space = WorldSpace(("a", "b"))
    a, b = Proposition.atom(space, "a"), Proposition.atom(space, "b")
    return ConstraintSet(space, [make(a, b)]), JointDistribution(space, [0.25] * 4)


STRICT_AT_BOUNDARY = [
    lambda a, b: ProbConstraint("prob_gt", Side(target=a), Side(const=0.5)),
    lambda a, b: ProbConstraint("prob_lt", Side(target=a), Side(const=0.75), margin=0.25),
    lambda a, b: ProbConstraint("cond_gt_prob", Side(target=a, given=b), Side(const=0.25),
                                margin=0.25),
    lambda a, b: ProbConstraint("cond_gt_cond", Side(target=a, given=b),
                                Side(target=a, given=~b)),
]

WEAK_AT_BOUNDARY = [
    lambda a, b: ProbConstraint("cond_ge_cond", Side(target=a), Side(const=0.25), margin=0.25),
    lambda a, b: ProbConstraint("cond_ge_cond", Side(target=a, given=b), Side(const=0.25),
                                margin=0.25),
    lambda a, b: ProbConstraint("equality", Side(target=a), Side(const=0.25), margin=0.25),
    lambda a, b: ProbConstraint("equality", Side(target=a), Side(const=0.75), margin=0.25),
    lambda a, b: ProbConstraint("equality", Side(target=a, given=b), Side(target=b)),
]


class TestVerdictRule:
    def test_strict_kind_fails_at_its_boundary(self):
        for make in STRICT_AT_BOUNDARY:
            cs, dist = uniform_ab_case(make)
            assert not is_satisfied(dist, cs), cs.constraints
            assert [Fraction(1, 4)] * 4 not in grid_enumerate(cs, 4), cs.constraints

    def test_weak_and_equality_hold_at_their_boundary(self):
        for make in WEAK_AT_BOUNDARY:
            cs, dist = uniform_ab_case(make)
            assert is_satisfied(dist, cs), cs.constraints
            assert [Fraction(1, 4)] * 4 in grid_enumerate(cs, 4), cs.constraints

    # The float verdicts of all grid points come from one block: the grid is
    # dyadic, so a block row sums exactly as one weight vector does.
    @settings(max_examples=20, deadline=None)
    @given(cs=constraint_sets(atoms=st.integers(2, 3)))
    def test_float_agrees_with_exact_grid_away_from_boundary(self, cs):
        points = list(grid_points(cs.space.world_count, RESOLUTION))
        block = np.array(points) / RESOLUTION
        compiled = CompiledConstraints(cs.constraints)
        near = np.zeros(len(points), dtype=bool)
        for c, margin in zip(cs.constraints, compiled.margins(block)):
            near |= np.abs(margin - required(c)) <= 1e-9
        np.testing.assert_array_equal(
            compiled.satisfied(block)[~near], exact_verdicts(cs, points)[~near]
        )

    @settings(max_examples=20, deadline=None)
    @given(cs=constraint_sets(atoms=st.integers(2, 3), dyadic=True))
    def test_exact_verdict_wins_at_the_boundary(self, cs):
        points = list(grid_points(cs.space.world_count, RESOLUTION))
        satisfied = CompiledConstraints(cs.constraints).satisfied(np.array(points) / RESOLUTION)
        np.testing.assert_array_equal(satisfied, exact_verdicts(cs, points))


class TestSatisfiedBoundsPenalty:
    # find_model's found is the float verdict alone, with no penalty test:
    # a satisfied vector has penalty <= 1e-12, since a strict kind that holds
    # has hinge 0 and a weak or equality kind a hinge of at most
    # BOUNDARY_TOLERANCE, so the penalty is at most C * 1e-24.
    @settings(max_examples=40, deadline=None)
    @given(cs=st.booleans().flatmap(
        lambda dyadic: constraint_sets(atoms=st.integers(2, 3), dyadic=dyadic)))
    def test_satisfied_grid_points_have_penalty_at_most_1e_12(self, cs):
        block = np.array(list(grid_points(cs.space.world_count, RESOLUTION))) / RESOLUTION
        compiled = CompiledConstraints(cs.constraints)
        satisfied = compiled.satisfied(block)
        assert np.all(compiled.penalty(block)[satisfied] <= 1e-12)
        for row in block[satisfied][:20]:
            assert compiled.satisfied(row) and compiled.penalty(row) <= 1e-12

    def test_boundary_points(self):
        within_tolerance = [
            lambda a, b: ProbConstraint("cond_ge_cond", Side(target=a), Side(const=0.5 + 4e-13)),
            lambda a, b: ProbConstraint("equality", Side(target=a), Side(const=0.5 + 4e-13)),
        ]
        held = 0
        for make in STRICT_AT_BOUNDARY + WEAK_AT_BOUNDARY + within_tolerance:
            cs, dist = uniform_ab_case(make)
            if is_satisfied(dist, cs):
                held += 1
                assert penalty(dist, cs) <= 1e-12, cs.constraints
        assert held == len(WEAK_AT_BOUNDARY) + len(within_tolerance)


class TestIntegerDifferences:
    # grid_enumerate reads the kernel's value rows over integer weights. Over
    # k/1024 weights that reading and the float margins see the same sides.
    @settings(max_examples=80, deadline=None)
    @given(cs=constraint_sets(), data=st.data())
    def test_integer_reading_matches_float_margins(self, cs, data):
        n = cs.space.world_count
        block = np.array(data.draw(st.lists(dyadic_rows(n), min_size=1, max_size=6)))
        counts = np.rint(block * 1024).astype(np.int64)
        compiled = CompiledConstraints(cs.constraints)
        margins = compiled.margins(block)
        differences = compiled.integer_differences(counts)
        for c, margin, (x, y, k) in zip(cs.constraints, margins, differences):
            x, y = np.broadcast_to(x, margin.shape), np.broadcast_to(y, margin.shape)
            np.testing.assert_array_equal(y == 0, np.isnan(margin))
            defined = y != 0
            first_minus_second = x[defined] / y[defined] + float(k)
            if c.kind == "equality":
                first_minus_second = -np.abs(first_minus_second)
            assert np.all(np.abs(first_minus_second - margin[defined]) <= 1e-12)

    # The mask sums are one float64 product, exact while every row sum is
    # below 2**31; x and y stay in int64. At row sums of 2**31 - 1, (x, y, k)
    # must equal a recomputation from the constraints in Python ints.
    @settings(max_examples=60, deadline=None)
    @given(cs=constraint_sets(), data=st.data())
    def test_exact_at_the_row_sum_bound(self, cs, data):
        n, total = cs.space.world_count, 2**31 - 1
        cuts = st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)
        rows = data.draw(st.lists(cuts.map(lambda c: np.diff([0, *sorted(c), total])),
                                  min_size=1, max_size=6))
        counts = np.array([[total] + [0] * (n - 1), *rows], dtype=np.int64)
        exact = counts.astype(object)

        def mass(mask):
            return exact @ np.array([int(b) for b in mask], dtype=object)

        def side(s: Side):
            if s.is_const:
                return 0, 1, Fraction(s.const)
            if s.given is None:
                return mass(s.target.mask), mass(np.ones(n, dtype=bool)), 0
            return mass(s.target.mask & s.given.mask), mass(s.given.mask), 0

        compiled = CompiledConstraints(cs.constraints)
        shape = (len(counts),)
        for c, (x, y, k) in zip(cs.constraints, compiled.integer_differences(counts)):
            first, second = (c.rhs, c.lhs) if c.kind == "prob_lt" else (c.lhs, c.rhs)
            (fn, fd, fc), (sn, sd, sc) = side(first), side(second)
            assert [int(v) for v in np.broadcast_to(x, shape)] == list(
                np.broadcast_to(fn * sd - sn * fd, shape))
            assert [int(v) for v in np.broadcast_to(y, shape)] == list(
                np.broadcast_to(fd * sd, shape))
            assert k == fc - sc


class TestGridReference:
    # Lists, not sets: grid_enumerate must keep the reference's point order.
    @settings(max_examples=50, deadline=None)
    @given(cs=constraint_sets(atoms=st.integers(1, 3)), resolution=st.integers(1, 10))
    def test_matches_fraction_reference(self, cs, resolution):
        assert grid_enumerate(cs, resolution) == reference_grid(cs, resolution)

    def test_corpus_sets_match_fraction_reference(self):
        checked = 0
        for scenario in load_corpus():
            cs = scenario.constraint_set()
            if cs is None or scenario.space.world_count > 8:
                continue
            checked += 1
            assert grid_enumerate(cs, 10) == reference_grid(cs, 10), scenario.name
        assert checked == 5

    # Thresholds beyond +-(R**2 + 2) are clamped before the integer bounds
    # are taken; the verdicts must not move.
    @pytest.mark.parametrize("const", [-1e300, -7.0, -3.25, 3.25, 7.0, 1e300])
    @pytest.mark.parametrize("kind", KINDS)
    def test_far_thresholds_match_fraction_reference(self, kind, const):
        space = WorldSpace(("a",))
        a = Proposition.atom(space, "a")
        for margin in (0.0, 5.0):
            for lhs, rhs in ((Side(target=a), Side(const=const)),
                             (Side(const=const), Side(target=a, given=~a | a))):
                cs = ConstraintSet(space, [ProbConstraint(kind, lhs, rhs, margin=margin)])
                for resolution in (1, 2, 3):
                    assert grid_enumerate(cs, resolution) == reference_grid(cs, resolution)


@st.composite
def screened_cases(draw):
    """A constraint set, an optional pin over its worlds, and a sub-list of it."""
    cs = draw(constraint_sets(atoms=st.sampled_from([2, 5, 6]), empty=True,
                              constants=st.floats(-1e300, 1e300) | st.floats(-1.5, 1.5)))
    n = cs.space.world_count
    pin = None
    if draw(st.booleans()):
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(
            lambda m: any(m) and not all(m)))
        pin = (np.array(mask), draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
    return cs, pin, [c for c in cs.constraints if draw(st.booleans())]


def absorbed_in_one_lane() -> ConstraintSet:
    """121 constraints whose one-row penalty loses 15 of its squares.

    Constraints 0, 8, ..., 120 are violated, each between two constants:
    the first by a hinge of 3, the other 15 by a hinge of 2.8e-8, whose
    square is below half an ulp of 9. The rest, P(a) > -1, hold on every
    row. numpy (2.4.6) sums the 121 squares of a one-row block pairwise, in
    eight lanes of every eighth term, so the full penalty adds each small
    square to 9 in lane 0 and loses it. The screen sums its 16 squares
    alone: the small ones meet in lanes 1-7 first, and their sums are kept.
    That outweighs what its lowered margins take off, so only the screen's
    (2m + 6) u factor keeps its bound below the full penalty.
    """
    space = WorldSpace(("a",))
    a = Proposition.atom(space, "a")
    constraints = [ProbConstraint("prob_gt", Side(const=-1.0), Side(const=1.0), margin=1.0)]
    for i in range(1, 121):
        constraints.append(
            ProbConstraint("prob_gt", Side(const=0.0), Side(const=0.0), margin=2.8e-8)
            if i % 8 == 0 else ProbConstraint("prob_gt", Side(target=a), Side(const=-1.0)))
    return ConstraintSet(space, constraints)


def per_row_bounds(screen: _Screen, w: np.ndarray) -> np.ndarray:
    """The reference for _Screen.least: each row's bound, scaled and clamped
    on its own (see _Screen)."""
    bounds = screen.penalty(w) * screen._shrink
    bounds[bounds < 2.0**-900] = 0.0
    return np.minimum(bounds, 2.0**1000, out=bounds)


class TestScreenBound:
    # Squared hinges are nonnegative, so a sub-list's penalty bounds the full
    # one from below; the screen's allowance covers the rounding by which its
    # reading of the sub-list differs from the full kernel's. The blocks are
    # raw exponential rows, at least a batch of them as find_model scores,
    # and the first of those rows alone, as a budget that leaves one row
    # ends in; or those rows pinned as find_model pins them (a pin at 0 or 1
    # empties a block, so its conditionals are undefined). Constants reach
    # +-1e300, and a given may be empty, an undefined side on every row. At
    # 32 and 64 worlds BLAS may sum a sub-list's columns to other last bits.
    # least is the least of the per-row bounds, to the bit.
    @settings(max_examples=100, deadline=None)
    @given(case=screened_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(absorbed_in_one_lane(), None, []), seed=0)
    def test_full_penalty_is_at_least_the_screened_bound(self, case, seed):
        cs, pin, kept = case
        rng = np.random.default_rng(seed)
        block = rng.standard_exponential(
            (int(rng.integers(BATCH_SIZE, 2 * BATCH_SIZE)), cs.space.world_count))
        if pin is not None:
            block = _normalise(block, pin)
        compiled = CompiledConstraints(cs.constraints)
        for rows in (block, block[:1]):
            full = compiled.penalty(rows)
            # A screen kept at a row holds every positive hinge of that row,
            # so there the bound comes within rounding of the full penalty.
            screens = [compiled.screen(row) for row in rows[::64]]
            for screen in [_Screen(kept, len(cs.constraints)), *screens]:
                bounds = per_row_bounds(screen, rows)
                assert bounds.shape == full.shape
                assert np.all(full >= bounds)
                assert screen.least(rows).hex() == float(bounds.min()).hex()

    # On dyadic rows a dyadic set reads its margins exactly, so hinges of
    # exactly 0, a strict kind held at its margin, are drawn too; a screen
    # keeps a constraint iff its hinge is positive or undefined (nan).
    @settings(max_examples=60, deadline=None)
    @given(cs=st.booleans().flatmap(lambda dyadic: constraint_sets(dyadic=dyadic, empty=True)),
           data=st.data())
    def test_screen_keeps_the_positive_and_undefined_hinges(self, cs, data):
        compiled = CompiledConstraints(cs.constraints)
        w = data.draw(dyadic_rows(cs.space.world_count))
        hinges = [_required(c) - m for c, m in zip(cs.constraints, compiled.margins(w))]
        kept = [c for c, h in zip(cs.constraints, hinges) if math.isnan(h) or h > 0]
        screen = compiled.screen(w)
        assert isinstance(screen, _Screen) and screen.constraints == tuple(kept)

    def test_an_empty_screen_bounds_every_row_by_zero(self):
        block = np.random.default_rng(2).standard_exponential((BATCH_SIZE, 8))
        screen = _Screen([], 4)
        assert not per_row_bounds(screen, block).any()
        assert screen.least(block).hex() == (0.0).hex()

    def test_bound_holds_where_the_two_readings_differ(self):
        # Over 64 worlds BLAS sums the screen's two columns, a and the
        # all-ones one, to other last bits than the full kernel's fourteen,
        # so the two read some margins differently. The filler holds on
        # every row, so the screened pair carries the whole penalty, and the
        # allowance alone keeps the bound below it.
        space = WorldSpace(tuple(f"A{i}" for i in range(6)))
        rng = np.random.default_rng(6)
        a, *events = (Proposition(space, rng.random(64) < 0.5) for _ in range(13))
        compiled = CompiledConstraints([
            ProbConstraint("prob_gt", Side(target=a), Side(const=0.6)),
            ProbConstraint("prob_lt", Side(target=a), Side(const=0.4)),
            *(ProbConstraint("cond_ge_cond", Side(target=t, given=g), Side(const=0.0))
              for t, g in zip(events[::2], events[1::2])),
        ])
        block = rng.standard_exponential((BATCH_SIZE, 64))
        screen = _Screen(compiled.constraints[:2], len(compiled.constraints))
        assert compiled.columns.shape[0] == 14 and screen.columns.shape[0] == 2
        assert screen._achieved(block).tobytes() != compiled._achieved(block)[:2].tobytes()
        bounds = per_row_bounds(screen, block)
        assert np.all(compiled.penalty(block) >= bounds)
        assert screen.least(block).hex() == float(bounds.min()).hex()


def reference_margins(compiled: CompiledConstraints, w: np.ndarray) -> np.ndarray:
    """margins one step at a time, gathered by fancy index, from public parts.

    The mask sums are compiled.columns @ rows.T, the kernel's one product;
    each query side's num and den rows are found by matching its masks
    against the columns. The side values are stacked, first and second per
    constraint with prob_lt's swapped, gathered by fancy index and
    subtracted, and equality takes -|.|.
    """
    rows = w.reshape(-1, w.shape[-1])
    columns = compiled.columns
    sums = columns @ rows.T if len(columns) else None

    def column(mask):
        return sums[np.flatnonzero((columns == mask).all(axis=1))[0]]

    def value(side: Side):
        if side.is_const:
            return np.full(len(rows), side.const)
        target = side.target.mask
        if side.given is None:
            return column(target) / column(np.ones_like(target))
        return column(target & side.given.mask) / column(side.given.mask)

    m = len(compiled.constraints)
    with np.errstate(all="ignore"):
        values = np.array([
            value(s) for c in compiled.constraints
            for s in ((c.rhs, c.lhs) if c.kind == "prob_lt" else (c.lhs, c.rhs))
        ]).reshape(2 * m, len(rows))
        firsts = np.arange(0, 2 * m, 2)
        achieved = values[firsts]
        achieved -= values[firsts + 1]
    equality = [i for i, c in enumerate(compiled.constraints) if c.kind == "equality"]
    achieved[equality] = -np.abs(achieved[equality])
    return achieved if w.ndim > 1 else achieved[:, 0]


def reference_penalty(compiled: CompiledConstraints, w: np.ndarray, targets) -> np.ndarray:
    """penalty's steps on reference_margins: the hinge against each
    constraint's required margin in targets, nan to a hinge of 1, squared
    and summed over the constraint axis."""
    achieved = reference_margins(compiled, w.reshape(-1, w.shape[-1]))
    with np.errstate(all="ignore"):
        hinges = np.maximum(np.array(targets, dtype=float)[:, None] - achieved, 0.0)
        hinges[np.isnan(hinges)] = 1.0
        total = np.square(hinges).sum(axis=0)
    return total if w.ndim > 1 else total[0]


def reference_least(screen: _Screen, m: int, w: np.ndarray) -> float:
    """_Screen.least from its documented allowance and shrink factor."""
    kept = screen.constraints
    n = w.shape[-1] if any(not s.is_const for c in kept for s in (c.lhs, c.rhs)) else 0
    magnitude = [max(abs(required(c)), *(abs(s.const) if s.is_const else 1.0
                                         for s in (c.lhs, c.rhs))) for c in kept]
    lowered = np.array([required(c) for c in kept]) - 16 * (n + 1) * 2.0**-53 * np.array(magnitude)
    least = float(reference_penalty(screen, w, lowered).min()) * (1.0 - (2 * m + 6) * 2.0**-53)
    return 0.0 if least < 2.0**-900 else min(least, 2.0**1000)


def far_constant_cases() -> ConstraintSet:
    """Constant sides, an undefined conditional, constants at +-1e308 and a
    hinge past 1e154, beside ordinary query sides over three atoms."""
    space = WorldSpace(("a", "b", "c"))
    a, b, c = (Proposition.atom(space, name) for name in space.atoms)
    nothing = Proposition(space, np.zeros(8, dtype=bool))
    return ConstraintSet(space, [
        ProbConstraint("prob_gt", Side(target=a), Side(const=0.25), margin=0.125),
        ProbConstraint("prob_lt", Side(const=0.5), Side(target=b, given=c)),
        ProbConstraint("cond_gt_cond", Side(target=a, given=b), Side(target=c, given=~b)),
        ProbConstraint("equality", Side(const=-1e308), Side(const=1e308)),
        ProbConstraint("prob_gt", Side(const=1e308), Side(const=-1e308)),
        ProbConstraint("prob_gt", Side(const=0.0), Side(const=1e155)),
        ProbConstraint("cond_gt_prob", Side(target=a, given=nothing), Side(target=a)),
        ProbConstraint("equality", Side(const=0.25), Side(const=0.75), margin=0.125),
        ProbConstraint("cond_ge_cond", Side(target=c, given=a | b), Side(const=0.5)),
    ])


def two_equality_cases() -> ConstraintSet:
    """Two equalities over query sides, one between two conditionals, with a
    strict constraint between them, so the -|.| rows are not contiguous."""
    space = WorldSpace(("a", "b", "c"))
    a, b, c = (Proposition.atom(space, name) for name in space.atoms)
    return ConstraintSet(space, [
        ProbConstraint("equality", Side(target=a), Side(const=0.5)),
        ProbConstraint("prob_gt", Side(target=b), Side(const=0.25), margin=0.125),
        ProbConstraint("equality", Side(target=a, given=c), Side(target=b, given=~c),
                       margin=0.0625),
    ])


def kernel_blocks(n: int, seed: int):
    """One vector, 5 rows, (2n, n) and 512 rows of raw exponential weights."""
    rng = np.random.default_rng(seed)
    return [rng.standard_exponential(shape) for shape in ((n,), (5, n), (2 * n, n), (512, n))]


class TestKernelReference:
    # The kernel gathers its rows by take and enters one error state per
    # penalty call; it must read every value bit for bit as the reference
    # above, which gathers by fancy index, one step at a time.
    @settings(max_examples=60, deadline=None)
    @given(cs=constraint_sets(atoms=st.sampled_from([2, 3, 5, 6]), empty=True,
                              constants=st.floats(-1e308, 1e308) | st.floats(-1.5, 1.5)),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(cs=far_constant_cases(), seed=0, data=None)
    @example(cs=two_equality_cases(), seed=1, data=None)
    def test_every_reading_is_the_reference_to_the_bit(self, cs, seed, data):
        compiled = CompiledConstraints(cs.constraints)
        m = len(cs.constraints)
        needed = [required(c) for c in cs.constraints]
        floors = np.array([math.nextafter(r, math.inf) if c.kind in STRICT_KINDS else r - 1e-12
                           for c, r in zip(cs.constraints, needed)])
        kept = (list(cs.constraints) if data is None else
                [c for c in cs.constraints if data.draw(st.booleans())])
        for w in kernel_blocks(cs.space.world_count, seed):
            margins = reference_margins(compiled, w)
            assert compiled.margins(w).tobytes() == margins.tobytes()
            assert compiled.penalty(w).tobytes() == reference_penalty(compiled, w, needed).tobytes()
            verdict = (margins.reshape(m, -1) >= floors[:, None]).all(axis=0)
            verdict = verdict if w.ndim > 1 else verdict[0]
            assert compiled.satisfied(w).tobytes() == verdict.tobytes()
            rows = w.reshape(-1, w.shape[-1])
            for screen in (_Screen(kept, m), compiled.screen(rows[0])):
                assert screen.least(rows).hex() == reference_least(screen, m, rows).hex()


class TestGridBudgetEdge:
    # The largest grid grid_enumerate allows: 8 worlds at resolution 20,
    # 888 030 points. P(a) > 0.975 keeps exactly the comb(23, 3) points with
    # all weight on the four a-worlds. The float 0.95 lies just below 19/20,
    # so P(a) > 0.95 also keeps the 4 * comb(22, 3) points at P(a) = 19/20.
    @pytest.mark.parametrize("bound, expected", [
        (0.975, math.comb(23, 3)),
        (0.95, math.comb(23, 3) + 4 * math.comb(22, 3)),
    ])
    def test_exact_grid_at_the_budget_edge(self, bound, expected):
        space = WorldSpace(("a", "b", "c"))
        assert space.world_count == MAX_GRID_WORLDS == 8 and MAX_GRID_RESOLUTION == 20
        a = Proposition.atom(space, "a")
        cs = ConstraintSet(space, [ProbConstraint("prob_gt", Side(target=a), Side(const=bound))])
        points = grid_enumerate(cs, MAX_GRID_RESOLUTION)
        assert len(points) == expected
        assert all(sum(w for w, t in zip(p, a.mask) if t) > bound for p in points)
