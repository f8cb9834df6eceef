"""The compiled evaluation kernel and the verdict rule it shares with the grid."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

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
from analogybench.finder import (
    ALL_KINDS,
    CompiledConstraints,
    _holds,
    _required,
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


def reference_grid(cs: ConstraintSet, resolution: int) -> list[list[Fraction]]:
    """grid_enumerate one point at a time in Fraction arithmetic.

    The per-point loop the integer grid replaced, kept as its reference: the
    compiled margins of each point's Fraction values, judged by _holds.
    """
    compiled = CompiledConstraints(cs.constraints)
    n = cs.space.world_count
    points = list(grid_points(n, resolution))
    columns = np.array(compiled.columns, dtype=np.int64).reshape(-1, n)
    masses = (np.array(points) @ columns.T).tolist()
    consts = [Fraction(c) for c in compiled.consts]
    fractions = [Fraction(k, resolution) for k in range(resolution + 1)]
    satisfying = []
    for point, mass in zip(points, masses):
        values = consts + [fractions[m] for m in mass]
        try:
            ok = all(
                _holds(c.kind, achieved, _required(c), 0)
                for c, achieved in zip(cs.constraints, compiled._margins(values))
            )
        except ZeroDivisionError:  # an undefined conditional fails its constraint
            ok = False
        if ok:
            satisfying.append([fractions[k] for k in point])
    return satisfying


def required(c: ProbConstraint) -> float:
    return -c.margin if c.kind == "equality" else c.margin


def exact_verdicts(cs: ConstraintSet, points: list[tuple[int, ...]]) -> np.ndarray:
    """Per grid point (in counts of 1/RESOLUTION), whether grid_enumerate keeps it."""
    kept = {tuple(int(f * RESOLUTION) for f in p) for p in grid_enumerate(cs, RESOLUTION)}
    return np.array([p in kept for p in points], dtype=bool)


@st.composite
def constraint_sets(draw, atoms=st.integers(2, 4), dyadic=False):
    """Random constraint sets; dyadic ones use only P(target) and k/8 constants.

    Over a dyadic grid every side of a dyadic set is exact in float, so the
    float and the exact verdicts must agree even at the boundary. Other sets
    draw constants in [-0.5, 1.5] and margins up to 0.3 or 1e-6, mostly not
    dyadic; a constant on both sides or a conditional on an event of mass 0
    is allowed.
    """
    space = WorldSpace(tuple(f"a{i}" for i in range(draw(atoms))))
    n = space.world_count
    eighths = st.integers(0, RESOLUTION).map(lambda k: k / RESOLUTION)

    def prop():
        return Proposition(space, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))

    def side():
        form = draw(st.sampled_from(["const", "prob"] if dyadic else ["const", "prob", "cond"]))
        if form == "const":
            return Side(const=draw(eighths if dyadic else st.floats(-0.5, 1.5)))
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
        # a & b, b and a: three distinct masks across five query sides
        assert len(compiled.columns) == 3


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
