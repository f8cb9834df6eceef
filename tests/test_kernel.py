"""The compiled evaluation kernel and the verdict rule it shares with the grid."""

import itertools
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
    penalty,
)
from analogybench.finder import ALL_KINDS, CompiledConstraints, is_satisfied

KINDS = sorted(ALL_KINDS)
RESOLUTION = 8  # dyadic grid: every point's weights are exact in float


def grid_points(parts: int, total: int):
    """All nonnegative integer tuples of length `parts` summing to `total`."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


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
    float and the exact verdicts must agree even at the boundary.
    """
    space = WorldSpace(tuple(f"a{i}" for i in range(draw(atoms))))
    n = space.world_count
    eighths = st.integers(0, RESOLUTION).map(lambda k: k / RESOLUTION)

    def prop():
        return Proposition(space, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))

    def side():
        form = draw(st.sampled_from(["const", "prob"] if dyadic else ["const", "prob", "cond"]))
        if form == "const":
            return Side(const=draw(eighths if dyadic else st.floats(0.0, 1.0)))
        if form == "prob":
            return Side(target=prop())
        return Side(target=prop(), given=prop())

    margin = eighths.filter(lambda m: m <= 0.5) if dyadic else st.floats(0.0, 0.3)
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


class TestVerdictRule:
    def test_strict_kind_fails_at_its_boundary(self):
        space = WorldSpace(("a",))
        a = Proposition.atom(space, "a")
        cs = ConstraintSet(space, [ProbConstraint("prob_gt", Side(target=a), Side(const=0.5))])
        dist = JointDistribution(space, [0.5, 0.5])
        assert not is_satisfied(dist, cs)
        assert [Fraction(1, 2), Fraction(1, 2)] not in grid_enumerate(cs, 4)

    def test_weak_and_equality_hold_at_their_boundary(self):
        space = WorldSpace(("a",))
        a = Proposition.atom(space, "a")
        cs = ConstraintSet(space, [
            ProbConstraint("cond_ge_cond", Side(target=a), Side(const=0.25), margin=0.25),
            ProbConstraint("equality", Side(target=a), Side(const=0.25), margin=0.25),
        ])
        dist = JointDistribution(space, [0.5, 0.5])
        assert is_satisfied(dist, cs)
        assert [Fraction(1, 2), Fraction(1, 2)] in grid_enumerate(cs, 4)

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
