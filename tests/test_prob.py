import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from analogybench import (
    JointDistribution,
    Proposition,
    SpaceMismatchError,
    UndefinedConditionalError,
    WorldSpace,
    conditional,
    entails,
    is_non_extremal,
    probability,
)
from analogybench.formula import FormulaError, parse
from analogybench.prob import DEFAULT_EXTREMALITY_EPS, InvalidDistributionError

from conftest import random_distribution, random_proposition


class TestWorldSpace:
    def test_world_count(self):
        assert WorldSpace(("a",)).world_count == 2
        assert WorldSpace(("a", "b", "c")).world_count == 8

    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValueError):
            WorldSpace(("a", "a"))
        with pytest.raises(ValueError):
            WorldSpace(("",))
        with pytest.raises(ValueError):
            WorldSpace(("a-b",))
        # Python identifiers that no formula can name: the tokenizer reads
        # only ASCII letters, digits and "_" in an atom.
        for name in ["é", "ß", "Ω", "x٣", "ａ", "x\u00b7"]:
            with pytest.raises(ValueError, match=re.escape(repr(name))):
                WorldSpace((name, "b"))

    def test_rejects_oversized_space(self):
        with pytest.raises(ValueError):
            WorldSpace(tuple(f"a{i}" for i in range(21)))

    def test_canonical_world_enumeration(self):
        space = WorldSpace(("a", "b"))
        # world index bit k encodes atom k
        assert space.world_description(0) == {"a": False, "b": False}
        assert space.world_description(1) == {"a": True, "b": False}
        assert space.world_description(3) == {"a": True, "b": True}


def _reference_atom_names(node):
    if node[0] == "atom":
        return {node[1]}
    if node[0] == "not":
        return _reference_atom_names(node[1])
    return _reference_atom_names(node[1]) | _reference_atom_names(node[2])


def _reference_eval(node, space):
    if node[0] == "atom":
        return space.atom_mask(node[1])
    if node[0] == "not":
        return ~_reference_eval(node[1], space)
    left, right = _reference_eval(node[1], space), _reference_eval(node[2], space)
    return (left & right) if node[0] == "and" else (left | right)


def _reference_mask(space, text):
    """Proposition.parse's mask by two walks: unknown atoms first, then the mask."""
    node = parse(text)
    unknown = _reference_atom_names(node) - set(space.atoms)
    if unknown:
        raise FormulaError(f"unknown atom(s) {sorted(unknown)} in formula {text!r}")
    return _reference_eval(node, space)


def _outcome(build):
    """The mask's dtype and bytes, or the FormulaError's message."""
    try:
        mask = build()
    except FormulaError as exc:
        return str(exc)
    return mask.dtype, mask.tobytes()


# Formulas over a, b, c and two atoms outside the space ("z", "y"); a deep
# "!" or "(" prefix reaches and passes the 100-level bound.
_SHALLOW = st.recursive(
    st.sampled_from(["a", "b", "c", "y", "z"]),
    lambda inner: st.one_of(
        st.tuples(st.integers(1, 3), inner).map(lambda t: "!" * t[0] + t[1]),
        st.tuples(inner, st.sampled_from([" & ", " | ", "&", "|"]), inner).map("".join),
        inner.map(lambda t: f"({t})"),
    ),
    max_leaves=24,
)
_FORMULAS = st.one_of(
    _SHALLOW,
    st.tuples(st.integers(0, 101), _SHALLOW).map(lambda t: "!" * t[0] + t[1]),
    st.tuples(st.integers(0, 101), _SHALLOW).map(lambda t: "(" * t[0] + t[1] + ")" * t[0]),
)


class TestProposition:
    def test_tautology_and_contradiction_extensions(self, ab_space):
        assert Proposition.tautology(ab_space).extension == frozenset(range(4))
        assert Proposition.contradiction(ab_space).extension == frozenset()

    def test_parse_unknown_atom(self, ab_space):
        with pytest.raises(ValueError, match="unknown atom"):
            Proposition.parse(ab_space, "a & q")

    def test_each_unknown_atom_is_named_once_sorted(self, ab_space):
        with pytest.raises(FormulaError, match=re.escape(
                "unknown atom(s) ['y', 'z'] in formula 'z & y | !z'")):
            Proposition.parse(ab_space, "z & y | !z")

    @pytest.mark.parametrize("text, message", [
        ("z & (y", "unbalanced parentheses"),
        ("z &", "unexpected end of formula"),
        ("z y", "trailing tokens"),
        ("z é", "unexpected character 'é'"),
        ("!" * 101 + "z", "deeper than 100 levels"),
    ])
    def test_syntax_error_comes_before_unknown_atoms(self, ab_space, text, message):
        with pytest.raises(FormulaError, match=re.escape(message)):
            Proposition.parse(ab_space, text)

    @given(_FORMULAS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_parse_matches_two_walk_reference(self, text):
        space = WorldSpace(("a", "b", "c"))
        assert _outcome(lambda: Proposition.parse(space, text).mask) == \
            _outcome(lambda: _reference_mask(space, text))

    def test_parse_matches_operators(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        assert Proposition.parse(ab_space, "a & !b") == a & ~b
        assert Proposition.parse(ab_space, "!(a | b)") == ~(a | b)

    def test_cross_space_operations_rejected(self, ab_space):
        other = WorldSpace(("a", "c"))
        with pytest.raises(SpaceMismatchError):
            Proposition.atom(ab_space, "a") & Proposition.atom(other, "a")


class TestJointDistribution:
    def test_rejects_negative_weights(self, ab_space):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(ab_space, [0.5, 0.6, -0.1, 0.0])

    def test_rejects_unnormalized(self, ab_space):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(ab_space, [0.3, 0.3, 0.3, 0.3])

    def test_normalization_tolerance(self, ab_space):
        JointDistribution(ab_space, [0.25, 0.25, 0.25, 0.25 + 5e-13])

    @pytest.mark.parametrize("weights", [
        [math.nan, 0.5, 0.25, 0.25],
        [math.inf, 0.0, 0.0, 0.0],
        [-math.inf, 1.0, 0.0, 0.0],
        [-0.1, 0.6, 0.25, 0.25],
        [math.inf, -math.inf, 0.5, 0.5],
    ])
    def test_rejects_non_finite_or_negative_weights(self, ab_space, weights):
        with pytest.raises(InvalidDistributionError,
                           match="^weights must be finite and nonnegative$"):
            JointDistribution(ab_space, weights)


class TestProbability:
    def test_uniform_single_atom(self):
        space = WorldSpace(("a",))
        dist = JointDistribution.uniform(space)
        assert probability(dist, Proposition.atom(space, "a")) == 0.5

    def test_tautology_is_certain(self, ab_dist, ab_space):
        a = Proposition.atom(ab_space, "a")
        assert probability(ab_dist, a | ~a) == pytest.approx(1.0, abs=1e-12)

    def test_four_world_example(self, ab_dist, ab_space):
        # P(a) = 0.2 + 0.3, summing the two a-worlds by hand
        assert probability(ab_dist, Proposition.atom(ab_space, "a")) == pytest.approx(0.5)

    def test_space_mismatch(self, ab_dist):
        other = WorldSpace(("a", "c"))
        with pytest.raises(SpaceMismatchError):
            probability(ab_dist, Proposition.atom(other, "a"))

    def test_equal_distinct_spaces_accepted(self, ab_dist, ab_space):
        twin = WorldSpace(("a", "b"))
        assert twin is not ab_space and twin == ab_space
        a, b = Proposition.atom(twin, "a"), Proposition.atom(twin, "b")
        assert probability(ab_dist, a) == probability(ab_dist, Proposition.atom(ab_space, "a"))
        assert conditional(ab_dist, a, b) == pytest.approx(0.75)
        with pytest.raises(SpaceMismatchError):
            conditional(ab_dist, a, Proposition.atom(WorldSpace(("a", "c")), "a"))


class TestConditional:
    def test_self_conditioning(self, ab_dist, ab_space):
        a = Proposition.atom(ab_space, "a")
        assert conditional(ab_dist, a, a) == pytest.approx(1.0)

    def test_four_world_example(self, ab_dist, ab_space):
        # P(a|b) = 0.3 / (0.3 + 0.1) by hand
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        assert conditional(ab_dist, a, b) == pytest.approx(0.75)

    def test_independence_under_uniformity(self, ab_space):
        dist = JointDistribution.uniform(ab_space)
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        assert conditional(dist, a, b) == pytest.approx(0.5)

    def test_zero_probability_condition(self, ab_space):
        dist = JointDistribution(ab_space, [1.0, 0.0, 0.0, 0.0])
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        with pytest.raises(UndefinedConditionalError):
            conditional(dist, b, a)


class TestEntails:
    def test_conjunction_elimination(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        assert entails(a & b, a)

    def test_disjunction_introduction(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        assert entails(a, a | b)

    def test_independent_atoms_do_not_entail(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        assert not entails(a, b)

    def test_space_mismatch(self, ab_space):
        other = WorldSpace(("a", "c"))
        with pytest.raises(SpaceMismatchError):
            entails(Proposition.atom(ab_space, "a"), Proposition.atom(other, "a"))


class TestNonExtremal:
    def test_uniform_atom(self, ab_space):
        dist = JointDistribution.uniform(ab_space)
        assert is_non_extremal(dist, Proposition.atom(ab_space, "a"))

    def test_tautology_is_extremal(self, ab_dist, ab_space):
        assert not is_non_extremal(ab_dist, Proposition.tautology(ab_space))

    def test_point_mass_world(self, ab_space):
        dist = JointDistribution(ab_space, [0.0, 0.0, 0.0, 1.0])
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        assert not is_non_extremal(dist, a & b)

    def test_epsilon_is_fixed(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        eps = DEFAULT_EXTREMALITY_EPS
        for p, inside in ((eps, False), (2 * eps, True), (1 - 2 * eps, True), (1 - eps, False)):
            dist = JointDistribution(ab_space, [1 - p, p, 0.0, 0.0])
            assert is_non_extremal(dist, a) is inside, p


@st.composite
def space_dist_and_props(draw, n_props=2):
    n_atoms = draw(st.integers(1, 4))
    space = WorldSpace(tuple(f"p{i}" for i in range(n_atoms)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dist = random_distribution(space, rng)
    props = [random_proposition(space, rng) for _ in range(n_props)]
    return space, dist, props


class TestInvariants:
    @given(space_dist_and_props())
    @settings(max_examples=200, deadline=None)
    def test_additivity_for_disjoint_events(self, data):
        space, dist, (a, b) = data
        b_disjoint = b & ~a
        lhs = probability(dist, a | b_disjoint)
        rhs = probability(dist, a) + probability(dist, b_disjoint)
        assert abs(lhs - rhs) <= 1e-12

    @given(space_dist_and_props())
    @settings(max_examples=200, deadline=None)
    def test_relevance_symmetry(self, data):
        space, dist, (a, b) = data
        if not (is_non_extremal(dist, a) and is_non_extremal(dist, b)):
            return
        da = conditional(dist, a, b) - probability(dist, a)
        db = conditional(dist, b, a) - probability(dist, b)
        if abs(da) > 1e-12 or abs(db) > 1e-12:
            assert (da > 1e-12) == (db > 1e-12) or (abs(da) <= 1e-12 or abs(db) <= 1e-12)

    @given(space_dist_and_props())
    @settings(max_examples=200, deadline=None)
    def test_total_probability(self, data):
        space, dist, (a, b) = data
        pb = probability(dist, b)
        # both branches must have support (note pb can round to < 1 even when
        # !b has an empty extension)
        if probability(dist, b) <= 0.0 or probability(dist, ~b) <= 0.0:
            return
        total = conditional(dist, a, b) * pb + conditional(dist, a, ~b) * (1 - pb)
        assert abs(total - probability(dist, a)) <= 1e-10

    @given(space_dist_and_props())
    @settings(max_examples=200, deadline=None)
    def test_entailment_monotonicity(self, data):
        space, dist, (a, b) = data
        sub = a & b
        assert probability(dist, sub) <= probability(dist, a) + 1e-12
        assert probability(dist, a) <= probability(dist, a | b) + 1e-12


@st.composite
def weights_and_masks(draw):
    """A distribution from arbitrary nonnegative floats and three random masks."""
    n_atoms = draw(st.integers(1, 6))
    space = WorldSpace(tuple(f"p{i}" for i in range(n_atoms)))
    n = space.world_count
    raw = draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n))
    assume(sum(raw) > 0)
    dist = JointDistribution.from_unnormalized(space, raw)
    masks = [draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(3)]
    return dist, [Proposition(space, np.array(m, dtype=bool)) for m in masks]


def exact_mass(dist, prop) -> Fraction:
    return sum((Fraction(w) for w, t in zip(dist.weights.tolist(), prop.mask) if t),
               Fraction(0))


class TestCorrectlyRoundedSums:
    """probability and conditional round exact sums of the selected weights once."""

    @given(weights_and_masks())
    @settings(max_examples=200, deadline=None)
    def test_probability_is_the_rounded_exact_sum(self, data):
        dist, props = data
        for a in props:
            assert probability(dist, a) == float(exact_mass(dist, a))

    @given(weights_and_masks())
    @settings(max_examples=200, deadline=None)
    def test_conditional_divides_rounded_exact_sums(self, data):
        dist, (a, b, given) = data
        den = exact_mass(dist, given)
        if den == 0:
            with pytest.raises(UndefinedConditionalError):
                conditional(dist, a, given)
            return
        for target in (a, b, a & given, ~given):
            assert conditional(dist, target, given) == (
                float(exact_mass(dist, target & given)) / float(den))

    def test_empty_selection_is_zero(self, ab_dist, ab_space):
        assert probability(ab_dist, Proposition.contradiction(ab_space)) == 0.0
        b = Proposition.atom(ab_space, "b")
        assert conditional(ab_dist, Proposition.contradiction(ab_space), b) == 0.0

    def test_zero_mass_given_raises(self, ab_space):
        dist = JointDistribution(ab_space, [0.5, 0.5, 0.0, 0.0])
        b = Proposition.atom(ab_space, "b")
        assert probability(dist, b) == 0.0
        with pytest.raises(UndefinedConditionalError):
            conditional(dist, Proposition.atom(ab_space, "a"), b)

    def test_other_space_raises_after_a_cached_query(self, ab_dist, ab_space):
        a = Proposition.atom(ab_space, "a")
        assert conditional(ab_dist, a, a) == 1.0
        other = Proposition.atom(WorldSpace(("a", "c")), "a")
        with pytest.raises(SpaceMismatchError):
            probability(ab_dist, other)
        with pytest.raises(SpaceMismatchError):
            conditional(ab_dist, other, a)
        with pytest.raises(SpaceMismatchError):
            conditional(ab_dist, a, other)
