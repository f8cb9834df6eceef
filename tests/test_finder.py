import itertools
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from analogybench import (
    ConstraintSet,
    JointDistribution,
    ProbConstraint,
    Proposition,
    SearchConfig,
    Side,
    WorldSpace,
    find_model,
    grid_enumerate,
    penalty,
    sample_simplex,
)
from analogybench import finder
from analogybench.prob import SpaceMismatchError
from analogybench.scenarios import corpus_dir, load_scenario
from analogybench.sweep import sweep_bridge_prior
from analogybench.finder import (
    LINE_SEARCH_STEPS,
    LOOKAHEAD_VALUES,
    CompiledConstraints,
    GridBudgetError,
    _compositions,
    _marginal_pin,
    _normalise,
    _scale_move,
    _single_moves,
    achieved_margins,
    coordinate_descent,
    is_satisfied,
    sample_blocks,
)

from conftest import (
    SPARSE_MISSES, child_env, exact_satisfied, exact_value, planted_set, random_event, run_capped,
    sparse_witness,
)


@pytest.fixture
def a_gt_half(ab_space):
    a = Proposition.atom(ab_space, "a")
    return ConstraintSet(
        space=ab_space,
        constraints=[
            ProbConstraint(kind="prob_gt", lhs=Side(target=a), rhs=Side(const=0.5), label="pa")
        ],
    )


def schema_style_constraints(space: WorldSpace, margin: float) -> ConstraintSet:
    """The four analogy-schema conditions over atoms (h, e, b)."""
    h = Proposition.atom(space, "h")
    e = Proposition.atom(space, "e")
    b = Proposition.atom(space, "b")
    nb = ~b
    return ConstraintSet(
        space=space,
        constraints=[
            ProbConstraint("cond_gt_prob", Side(target=h, given=b), Side(target=h),
                           margin=margin, label="c1"),
            ProbConstraint("cond_gt_cond", Side(target=e, given=b), Side(target=e, given=nb),
                           margin=margin, label="c2"),
            ProbConstraint("cond_ge_cond", Side(target=h, given=b & e), Side(target=h, given=b),
                           margin=0.0, label="c3"),
            ProbConstraint("cond_ge_cond", Side(target=h, given=nb & e), Side(target=h, given=nb),
                           margin=0.0, label="c4"),
        ],
    )


class TestSampleSimplex:
    def test_valid_distribution(self, xyz_space):
        dist = sample_simplex(xyz_space, seed=0)
        assert np.all(dist.weights >= 0)
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, xyz_space):
        a = sample_simplex(xyz_space, seed=42)
        b = sample_simplex(xyz_space, seed=42)
        np.testing.assert_array_equal(a.weights, b.weights)
        c = sample_simplex(xyz_space, seed=43)
        assert not np.array_equal(a.weights, c.weights)

    def test_uniformity_of_coordinate_mean(self, ab_space):
        # Uniform on the 4-world simplex: each coordinate has mean 1/4.
        totals = np.zeros(4)
        n = 20_000
        for seed in range(n):
            totals += sample_simplex(ab_space, seed).weights
        np.testing.assert_allclose(totals / n, 0.25, atol=0.01)


# A capped child's body: 40 000 uniquely labelled constraints in one set.
_MANY_NAMES = """
from analogybench import Proposition, WorldSpace
from analogybench.finder import ConstraintSet, ProbConstraint, Side
space = WorldSpace(("a",))
a = Proposition.atom(space, "a")
constraints = [ProbConstraint("prob_gt", Side(target=a), Side(const=0.5), label=f"p{i}")
               for i in range(40_000)]
print(len(ConstraintSet(space=space, constraints=constraints).constraints))
"""


class TestConstraintValidation:
    def test_side_needs_exactly_one_form(self):
        with pytest.raises(ValueError):
            Side()
        with pytest.raises(ValueError):
            Side(const=0.5, target=Proposition.atom(WorldSpace(("a",)), "a"))

    def test_constant_side_takes_no_given(self):
        # The kernel reads a constant as is, so a given beside it would be
        # ignored without a word.
        with pytest.raises(ValueError, match="either a constant or a"):
            Side(const=0.5, given=Proposition.atom(WorldSpace(("a",)), "a"))

    def test_unknown_kind_rejected(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        with pytest.raises(ValueError):
            ProbConstraint(kind="prob_ge", lhs=Side(target=a), rhs=Side(const=0.5))

    def test_negative_margin_rejected(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        with pytest.raises(ValueError):
            ProbConstraint(kind="prob_gt", lhs=Side(target=a), rhs=Side(const=0.5), margin=-0.1)

    def test_empty_set_rejected(self, ab_space):
        with pytest.raises(ValueError):
            ConstraintSet(space=ab_space, constraints=[])

    @pytest.mark.parametrize("margin", [float("inf"), float("nan")])
    @pytest.mark.parametrize("kind", ["prob_gt", "cond_ge_cond", "equality"])
    def test_non_finite_margin_rejected(self, ab_space, kind, margin):
        a = Proposition.atom(ab_space, "a")
        with pytest.raises(ValueError, match="finite"):
            ProbConstraint(kind, lhs=Side(target=a), rhs=Side(const=0.5), margin=margin)

    @pytest.mark.parametrize("const", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_constant_rejected(self, const):
        with pytest.raises(ValueError, match="finite"):
            Side(const=const)

    @pytest.mark.parametrize("labels", [("pa", "pa"), ("c1", None)])
    def test_duplicate_names_rejected(self, ab_space, labels):
        # Achieved margins are keyed by label, or c<i> for an unlabelled
        # constraint at index i; two equal keys would hide a margin.
        a = Proposition.atom(ab_space, "a")
        constraints = [ProbConstraint("prob_gt", Side(target=a), Side(const=0.1 * i), label=label)
                       for i, label in enumerate(labels)]
        with pytest.raises(ValueError, match=f"duplicate constraint name '{labels[0]}'"):
            ConstraintSet(space=ab_space, constraints=constraints)

    def test_duplicate_message_names_the_first_repeat(self, ab_space):
        # Names c0, pa, pb, pb, pa, c0: "pb" is the first seen a second time.
        a = Proposition.atom(ab_space, "a")
        constraints = [ProbConstraint("prob_gt", Side(target=a), Side(const=0.1 * i), label=label)
                       for i, label in enumerate([None, "pa", "pb", "pb", "pa", "c0"])]
        with pytest.raises(ValueError, match="^duplicate constraint name 'pb'$"):
            ConstraintSet(space=ab_space, constraints=constraints)

    def test_many_unique_names_are_checked_in_one_pass(self):
        # 40 000 names took about 20 s when each was looked up in the names
        # before it; one pass over a set takes milliseconds.
        child = run_capped(_MANY_NAMES, timeout=10)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "40000\n"

    # Each is refused by name before any draw: a float budget used to fail
    # late in numpy, a bool budget ran as one sample, and a negative or float
    # seed raised numpy's own message.
    @pytest.mark.parametrize("field, value, message", [
        ("max_samples", 2.5, "max_samples must be an int, got float"),
        ("max_samples", True, "max_samples must be an int, got bool"),
        ("max_samples", 0, "max_samples must be >= 1"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, "seed must be an int, got float"),
        ("seed", False, "seed must be an int, got bool"),
    ])
    def test_search_config_refuses_by_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize("wrapper", [penalty, achieved_margins, is_satisfied])
    def test_wrappers_check_the_space(self, ab_space, a_gt_half, wrapper):
        other = JointDistribution.uniform(WorldSpace(("c", "d")))
        with pytest.raises(SpaceMismatchError):
            wrapper(other, a_gt_half)


class TestPenalty:
    def test_zero_when_satisfied(self, ab_space, a_gt_half):
        dist = JointDistribution(ab_space, [0.1, 0.5, 0.1, 0.3])
        assert penalty(dist, a_gt_half) == 0.0

    def test_squared_hinge_value(self, ab_space, a_gt_half):
        # P(a) = 0.3, shortfall vs 0.5 is 0.2, penalty 0.04
        dist = JointDistribution(ab_space, [0.4, 0.2, 0.3, 0.1])
        assert penalty(dist, a_gt_half) == pytest.approx(0.04)

    def test_undefined_conditional_fixed_penalty(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        cs = ConstraintSet(
            space=ab_space,
            constraints=[
                ProbConstraint("cond_gt_prob", Side(target=a, given=b), Side(target=a))
            ],
        )
        dist = JointDistribution(ab_space, [0.5, 0.5, 0.0, 0.0])  # P(b) = 0
        assert penalty(dist, cs) == 1.0

    def test_uniform_fails_strict_schema_margins(self, xyz_space):
        space = WorldSpace(("h", "e", "b"))
        cs = schema_style_constraints(space, margin=0.05)
        dist = JointDistribution.uniform(space)
        # Both strict conditions sit at equality, 0.05 short of margin each.
        assert penalty(dist, cs) == pytest.approx(2 * 0.05**2)

    def test_equality_within_margin(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        cs = ConstraintSet(
            space=ab_space,
            constraints=[
                ProbConstraint("equality", Side(target=a), Side(const=0.5), margin=0.01)
            ],
        )
        near = JointDistribution(ab_space, [0.25, 0.255, 0.245, 0.25])
        far = JointDistribution(ab_space, [0.2, 0.4, 0.1, 0.3])
        assert penalty(near, cs) == 0.0
        assert penalty(far, cs) > 0.0

    def test_overflow_is_inf_without_a_warning(self, ab_space):
        # A hinge near 1e200 squares past the float limit; two constants near
        # it differ by more than the limit. The suite turns a RuntimeWarning
        # into an error, so a warning would fail these calls.
        a = Proposition.atom(ab_space, "a")
        dist = JointDistribution.uniform(ab_space)
        huge = ConstraintSet(ab_space, [
            ProbConstraint("prob_gt", Side(target=a), Side(const=1e200))])
        assert penalty(dist, huge) == math.inf
        assert not is_satisfied(dist, huge)
        apart = ConstraintSet(ab_space, [
            ProbConstraint("prob_gt", Side(const=1e308), Side(const=-1e308))])
        assert penalty(dist, apart) == 0.0
        assert is_satisfied(dist, apart)
        assert achieved_margins(dist, apart) == {"c0": math.inf}


class TestFindModel:
    def test_easy_constraint(self, a_gt_half):
        result = find_model(a_gt_half, SearchConfig(seed=1, max_samples=2_000))
        assert result.found
        assert result.penalty <= 1e-12
        assert result.achieved_margins["pa"] > 0.0
        assert is_satisfied(result.distribution, a_gt_half)

    def test_schema_constraints_at_margin(self):
        space = WorldSpace(("h", "e", "b"))
        cs = schema_style_constraints(space, margin=0.05)
        result = find_model(cs, SearchConfig(seed=1))
        assert result.found
        assert result.achieved_margins["c1"] >= 0.05 - 1e-12
        assert result.achieved_margins["c2"] >= 0.05 - 1e-12
        assert result.achieved_margins["c3"] >= -1e-12
        assert result.achieved_margins["c4"] >= -1e-12

    def test_contradictory_constraints_exhaust_budget(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        cs = ConstraintSet(
            space=ab_space,
            constraints=[
                ProbConstraint("prob_gt", Side(target=a), Side(const=0.9), label="hi"),
                ProbConstraint("prob_lt", Side(target=a), Side(const=0.1), label="lo"),
            ],
        )
        result = find_model(cs, SearchConfig(seed=1, max_samples=2_000))
        assert not result.found
        assert result.samples_used == 2_000
        assert result.penalty > 0.0
        # best-found distribution still reported
        assert result.distribution.weights.sum() == pytest.approx(1.0)

    def test_overflowing_penalties_exhaust_budget(self, ab_space):
        # Every squared hinge overflows to inf, so no refine beats the first;
        # the first batch's refine is still the reported model.
        a = Proposition.atom(ab_space, "a")
        cs = ConstraintSet(ab_space, [ProbConstraint("prob_gt", Side(target=a), Side(const=1e200))])
        result = find_model(cs, SearchConfig(seed=1, max_samples=1_500))
        assert not result.found
        assert result.penalty == math.inf
        assert result.samples_used == 1_500
        assert result.restarts_refined == 1
        assert result.achieved_margins["c0"] < -1e199

    def test_deterministic_given_seed(self, a_gt_half):
        a = find_model(a_gt_half, SearchConfig(seed=7, max_samples=2_000))
        b = find_model(a_gt_half, SearchConfig(seed=7, max_samples=2_000))
        np.testing.assert_array_equal(a.distribution.weights, b.distribution.weights)
        assert a.penalty == b.penalty


class TestSampleBlocks:
    @pytest.mark.parametrize("total", [1, 511, 513, 100_000])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_blocks_are_one_normalised_draw(self, total, n):
        # The blocks are one raw draw, unnormalised: the kernel reads a row
        # and its normalisation, a uniform simplex row, alike.
        blocks = list(sample_blocks(np.random.default_rng(total + n), n, total))
        reference = np.random.default_rng(total + n).standard_exponential((total, n))
        start, size = 0, finder.BATCH_SIZE
        for block in blocks:
            assert block.shape == (min(size, total - start), n)
            assert block.size <= LOOKAHEAD_VALUES
            assert block.tobytes() == reference[start:start + len(block)].tobytes()
            start += len(block)
            size = size * 2 if 2 * size * n <= LOOKAHEAD_VALUES else size
        assert start == total

    def test_first_block_larger_than_the_cap_is_kept(self):
        n = 2 * LOOKAHEAD_VALUES // finder.BATCH_SIZE
        sizes = [len(b) for b in sample_blocks(np.random.default_rng(0), n, 1300)]
        assert sizes == [512, 512, 276]

    def test_earlier_block_unchanged_by_next_draw(self):
        blocks = sample_blocks(np.random.default_rng(3), 4, 2_000)
        first = next(blocks)
        kept = first.copy()
        second = next(blocks)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)

    def test_drawn_lazily(self):
        rng = np.random.default_rng(0)
        blocks = sample_blocks(rng, 4, 10**9)
        assert [len(next(blocks)), len(next(blocks))] == [512, 1_024]
        reference = np.random.default_rng(0)
        reference.standard_exponential((1_536, 4))
        assert rng.standard_exponential() == reference.standard_exponential()


TIGHT_PLANTED = [(seed, atoms) for atoms in (4, 5) for seed in range(20)] + [
    (seed, 6) for seed in range(10)]


def contradictory_set(seed: int, atoms: int, family: int = 0) -> ConstraintSet:
    """A contradictory pair over random events, plus satisfiable filler.

    family 0: P(a) > hi and P(a) < lo <= hi.
    family 1: P(a|b) > P(a|!b) + m1 and P(a|!b) > P(a|b) + m2.
    """
    rng = np.random.default_rng([atoms, seed, 1])
    space = WorldSpace(tuple(f"A{i}" for i in range(atoms)))
    a = random_event(space, rng)
    if family == 0:
        hi = float(rng.uniform(0.4, 0.7))
        lo = hi - float(rng.uniform(0.05, 0.3))
        core = [ProbConstraint("prob_gt", Side(target=a), Side(const=hi), label="above"),
                ProbConstraint("prob_lt", Side(target=a), Side(const=lo), label="below")]
    else:
        b = random_event(space, rng)
        m1, m2 = (float(m) for m in rng.uniform(0.05, 0.25, 2))
        given, given_not = Side(target=a, given=b), Side(target=a, given=~b)
        core = [ProbConstraint("cond_gt_cond", given, given_not, margin=m1, label="raise"),
                ProbConstraint("cond_gt_cond", given_not, given, margin=m2, label="lower")]
    filler = [
        ProbConstraint("cond_gt_prob", Side(target=random_event(space, rng),
                                            given=random_event(space, rng)),
                       Side(const=0.0), label=f"f{i}")
        for i in range(atoms)
    ]
    return ConstraintSet(space, [*core, *filler])


#: Batches after a stall that restart whatever their raw penalty.
RESTART_OFFSETS = frozenset(2**k for k in range(40))


def one_batch_at_a_time(cs: ConstraintSet, config: SearchConfig):
    """find_model as one raw draw and one penalty call per batch, the reference.

    Under a marginal pin (finder._marginal_pin) each batch is normalised by
    finder._normalise before it is scored, and a refine starts from its best
    row normalised again, as find_model does with each block.

    It stops on penalty <= 1e-12 and satisfied, checked after every batch
    and again at the end; find_model checks satisfied alone, after each
    refine that improves the best. Equal results show the two rules agree.
    The first refine that leaves a best penalty below tau, the square of
    the least positive margin of a kind other than equality, without a
    model stalls the search, and each batch 1, 2, 4, 8, ... after the
    stalled one refines its best row whatever its raw penalty.
    """
    compiled = CompiledConstraints(cs.constraints)
    pin = finder._marginal_pin(cs.constraints)
    tau = min((c.margin for c in cs.constraints if c.kind != "equality" and c.margin > 0),
              default=0.0) ** 2
    rng = np.random.default_rng(config.seed)
    n = cs.space.world_count
    best_w, best_penalty = None, float("inf")
    samples_used = restarts_refined = batches = 0
    stalled_at = None
    while samples_used < config.max_samples:
        count = min(finder.BATCH_SIZE, config.max_samples - samples_used)
        weights = rng.standard_exponential((count, n))
        if pin is not None:
            weights = finder._normalise(weights, pin)
        penalties = compiled.penalty(weights)
        samples_used += count
        idx = int(np.argmin(penalties))
        due = stalled_at is not None and batches - stalled_at in RESTART_OFFSETS
        if penalties[idx] < best_penalty or due:
            refined, refined_penalty = coordinate_descent(
                finder._normalise(weights[idx], pin), compiled.penalty, pin)
            restarts_refined += 1
            if refined_penalty < best_penalty:
                best_penalty, best_w = refined_penalty, refined
            if (stalled_at is None and best_penalty < tau
                    and not (best_penalty <= 1e-12 and compiled.satisfied(best_w))):
                stalled_at = batches
        batches += 1
        if best_penalty <= 1e-12 and compiled.satisfied(best_w):
            break
    weights = JointDistribution.from_unnormalized(cs.space, best_w).weights
    found = bool(best_penalty <= 1e-12 and compiled.satisfied(best_w))
    return found, samples_used, restarts_refined, repr(float(best_penalty)), weights.tobytes()


def rare_set() -> ConstraintSet:
    """P(a) > 0.99 at 2 atoms: about 1 uniform sample in 3 400 satisfies it."""
    space = WorldSpace(("a", "b"))
    return ConstraintSet(space, [ProbConstraint(
        "prob_gt", Side(target=Proposition.atom(space, "a")), Side(const=0.99))])


def pinned(cs: ConstraintSet, c: float) -> ConstraintSet:
    """cs with P(A0) = c added, an exact marginal that find_model pins."""
    a0 = Proposition.atom(cs.space, "A0")
    return ConstraintSet(cs.space, [*cs.constraints, ProbConstraint(
        "equality", Side(target=a0), Side(const=c), label="pin")])


# name -> (set, REFINE_STEPS): with no descent sweep the rare set is found only
# by sampling, in some later batch of some later block. The pinned planted
# set is missed at budgets 511 and 512 and found at 5 000 by its 5th refine.
BLOCK_SETS = {
    "planted-3": (lambda: planted_set(3, 3)[0], 40),
    "planted-4": (lambda: planted_set(5, 4)[0], 40),
    "planted-4-pinned": (lambda: pinned(planted_set(5, 4)[0], 0.6), 40),
    "rare": (rare_set, 0),
    "contradictory-2": (lambda: contradictory_set(0, 2), 5),
    "contradictory-3": (lambda: contradictory_set(1, 3), 5),
}


# name -> (set, REFINE_STEPS): each runs out a 20 000-sample budget and refines
# more than once, so after each refine the screen is rebuilt and skips the
# blocks that cannot beat the new best. With two descent sweeps, the
# planted set's first refine leaves a best that a later batch beats.
SCREENED_SETS = {
    "contradictory-5-family-0": (lambda: contradictory_set(0, 5, 0), 5),
    "contradictory-5-family-1": (lambda: contradictory_set(1, 5, 1), 5),
    "contradictory-6-family-0": (lambda: contradictory_set(3, 6, 0), 5),
    "contradictory-6-family-1": (lambda: contradictory_set(0, 6, 1), 5),
    "contradictory-5-family-1-pinned": (lambda: pinned(contradictory_set(1, 5, 1), 0.6), 5),
    "planted-miss-4": (lambda: planted_set(10, 4)[0], 2),
}


class TestFindModelBlocks:
    @pytest.mark.parametrize("name", sorted(SCREENED_SETS))
    def test_screened_walk_matches_one_batch_at_a_time(self, monkeypatch, name):
        make, refine_steps = SCREENED_SETS[name]
        monkeypatch.setattr(finder, "REFINE_STEPS", refine_steps)
        cs = make()
        drawn, scored = [], []
        # The search reads its blocks through _penalty, in its one error state.
        sample_blocks, penalty = finder.sample_blocks, CompiledConstraints._penalty
        normalise = finder._normalise

        def spy_blocks(*args):
            for block in sample_blocks(*args):
                drawn.append(block)
                yield block

        def spy_normalise(w, pin):
            # Under a pin the search scores the block's normalised copy.
            out = normalise(w, pin)
            if drawn and w is drawn[-1]:
                drawn[-1] = out
            return out

        def spy_penalty(self, w):
            # A screen is a CompiledConstraints too; only full-kernel calls count.
            if drawn and w is drawn[-1] and not isinstance(self, finder._Screen):
                scored.append(len(w))
            return penalty(self, w)

        monkeypatch.setattr(finder, "sample_blocks", spy_blocks)
        monkeypatch.setattr(finder, "_normalise", spy_normalise)
        monkeypatch.setattr(CompiledConstraints, "_penalty", spy_penalty)
        config = SearchConfig(seed=20_000, max_samples=20_000)
        result = find_model(cs, config)
        got = (result.found, result.samples_used, result.restarts_refined,
               repr(result.penalty), result.distribution.weights.tobytes())
        assert got == one_batch_at_a_time(cs, config)
        assert not result.found and result.restarts_refined > 1
        # Most blocks are skipped unscored, the first always scored.
        assert scored[0] == finder.BATCH_SIZE and 2 * len(scored) < len(drawn)

    @pytest.mark.parametrize("name", sorted(BLOCK_SETS))
    @pytest.mark.parametrize("budget", [1, 511, 512, 513, 5_000])
    def test_matches_one_batch_at_a_time(self, monkeypatch, name, budget):
        make, refine_steps = BLOCK_SETS[name]
        monkeypatch.setattr(finder, "REFINE_STEPS", refine_steps)
        cs = make()
        config = SearchConfig(seed=budget, max_samples=budget)
        result = find_model(cs, config)
        got = (result.found, result.samples_used, result.restarts_refined,
               repr(result.penalty), result.distribution.weights.tobytes())
        assert got == one_batch_at_a_time(cs, config)
        assert result.achieved_margins == achieved_margins(result.distribution, cs)

    def test_compiles_once(self, monkeypatch):
        # The set compiles once; each screen is its kept constraints compiled
        # on their own, one per screen built, at most one per refine.
        compiles, screens = [], []
        init, screen = CompiledConstraints.__init__, CompiledConstraints.screen

        def counting_init(self, *args):
            compiles.append(type(self))
            init(self, *args)

        def counting_screen(self, w):
            screens.append(screen(self, w))
            return screens[-1]

        monkeypatch.setattr(CompiledConstraints, "__init__", counting_init)
        monkeypatch.setattr(CompiledConstraints, "screen", counting_screen)
        result = find_model(contradictory_set(0, 2), SearchConfig(max_samples=2_000))
        assert compiles.count(CompiledConstraints) == 1
        assert 1 <= compiles.count(finder._Screen) == len(screens) <= result.restarts_refined

    def test_rare_set_is_found_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(finder, "REFINE_STEPS", 0)
        result = find_model(rare_set(), SearchConfig(seed=5_000, max_samples=5_000))
        assert result.found
        # the first block is one batch of 512, the second two
        assert result.samples_used > 3 * finder.BATCH_SIZE and result.restarts_refined > 1


def conditional_equality_set(atoms: int) -> ConstraintSet:
    """P(a|b) = 0.3 exactly, beside P(b) > 0 at margin 0.5, so tau = 0.25.

    Descent meets a conditional equality only near its value: with 20
    sweeps a refine ends about 1e-8 from it, at a penalty near 1e-16, far
    below tau and far below what any sampled row reads on the equality.
    """
    space = WorldSpace(tuple(f"A{i}" for i in range(atoms)))
    a, b = (Proposition.atom(space, name) for name in space.atoms[:2])
    return ConstraintSet(space, [
        ProbConstraint("equality", Side(target=a, given=b), Side(const=0.3), label="equal"),
        ProbConstraint("prob_gt", Side(target=b), Side(const=0.0), margin=0.5, label="b"),
    ])


#: (seed, atoms) of planted_set searches whose only refine, under the rule
#: before stalled searches restarted, ended without a model at a best
#: penalty far below tau, and which then ran out the 100 000-sample budget.
STALLED_PLANTED = [(37, 4), (62, 4), (85, 4), (239, 4), (283, 4), (408, 4)]


#: The ten planted sets of the benchmark's solve workload at seed 1, rounds
#: 0-59, that the search missed before stalled searches restarted: (round,
#: atoms, tier, index in its cell), in the cell order of
#: SolveWorkload._make_tasks before its shuffle.
SOLVE_MISSES = [(2, 4, "tight", 6), (12, 4, "tight", 8), (22, 5, "tight", 3),
                (23, 4, "tight", 1), (25, 4, "tight", 6), (27, 4, "tight", 9),
                (28, 4, "tight", 9), (39, 4, "tight", 2), (48, 4, "tight", 0),
                (55, 5, "tight", 7)]


@pytest.fixture(scope="module")
def workloads():
    """benchmarks/workloads.py, imported as it is, with its sibling modules."""
    benchmarks = str(Path(__file__).resolve().parent.parent / "benchmarks")
    sys.path.insert(0, benchmarks)
    try:
        import harness
        import workloads
        yield workloads, harness
    finally:
        sys.path.remove(benchmarks)


class TestSparseWitnesses:
    # A known-answer list the search misses: each set is feasible, and its
    # witness shows it in exact arithmetic. Whether find_model finds a set is
    # asserted only once a change finds it.
    @pytest.mark.parametrize("seed", SPARSE_MISSES)
    def test_witness_meets_its_set_exactly(self, seed):
        cs, _, joint = sparse_witness(seed)
        assert exact_satisfied(cs.constraints, joint)
        assert (joint == 0).sum() >= 12


class TestStalledSearch:
    # A refine that leaves no model but a best penalty below tau stalls the
    # search: the batches 1, 2, 4, 8, ... after it refine their best row
    # whatever its raw penalty, and a block holding one is scored in full.
    def test_stall_bound_is_the_least_positive_margin_squared(self, ab_space):
        a = Side(target=Proposition.atom(ab_space, "a"))
        constraints = [ProbConstraint("prob_gt", a, Side(const=0.0)),
                       ProbConstraint("equality", a, Side(const=0.5), margin=0.01),
                       ProbConstraint("prob_lt", a, Side(const=0.9), margin=0.25),
                       ProbConstraint("prob_gt", a, Side(const=0.0), margin=0.5)]
        assert finder._stall_bound(constraints) == 0.25**2
        assert finder._stall_bound(constraints[:2]) == 0.0

    def test_restarts_follow_the_schedule(self, monkeypatch):
        monkeypatch.setattr(finder, "REFINE_STEPS", 20)
        cs = conditional_equality_set(6)
        drawn, scored = [], []
        sample_blocks, penalty = finder.sample_blocks, CompiledConstraints._penalty

        def spy_blocks(*args):
            for block in sample_blocks(*args):
                drawn.append(block)
                yield block

        def spy_penalty(self, w):
            if drawn and w is drawn[-1] and not isinstance(self, finder._Screen):
                scored.append(len(drawn) - 1)
            return penalty(self, w)

        monkeypatch.setattr(finder, "sample_blocks", spy_blocks)
        monkeypatch.setattr(CompiledConstraints, "_penalty", spy_penalty)
        config = SearchConfig(seed=3, max_samples=20_000)
        result = find_model(cs, config)
        got = (result.found, result.samples_used, result.restarts_refined,
               repr(result.penalty), result.distribution.weights.tobytes())
        assert got == one_batch_at_a_time(cs, config)
        # At 64 worlds a block is one batch. The first refine stalls, and the
        # screen skips every later block but those due a restart.
        assert len(drawn) == 40 and not result.found and result.penalty < 0.25
        assert scored == [0, 1, 2, 4, 8, 16, 32] and result.restarts_refined == 7

    @pytest.mark.parametrize("seed,atoms", STALLED_PLANTED)
    def test_stalled_planted_set_is_found(self, seed, atoms):
        cs, config = planted_set(seed, atoms)
        result = find_model(cs, config)
        assert result.found and result.restarts_refined > 1
        assert exact_satisfied(cs.constraints, result.distribution.weights)
        short = SearchConfig(seed=config.seed, max_samples=20_000)
        result = find_model(cs, short)
        got = (result.found, result.samples_used, result.restarts_refined,
               repr(result.penalty), result.distribution.weights.tobytes())
        assert got == one_batch_at_a_time(cs, short)

    @pytest.mark.parametrize("round_index,atoms,tier,index", SOLVE_MISSES)
    def test_solve_misses_are_found(self, workloads, round_index, atoms, tier, index):
        workloads, harness = workloads
        tasks = {t.id: t for t in workloads.SolveWorkload(1)._make_tasks(round_index)}
        task = tasks[f"solve:r{round_index}:{atoms}{tier}:{index}"]
        result = task.run(harness.Tracer(False))
        # check certifies a found model exactly (benchmarks/exact.py).
        assert task.check(result) is None
        assert result.found and result.restarts_refined > 1

    def test_unmeetable_equality_runs_a_bounded_schedule(self):
        # riemann_weil with P(W|R) = 0.5 at margin 0: descent meets the
        # equality only near its value, never within BOUNDARY_TOLERANCE. The
        # first refine stalls, and the schedule adds at most 8 refines at the
        # default budget of 196 batches.
        riemann = load_scenario(corpus_dir() / "riemann_weil.json")
        space = riemann.constraint_set().space
        w_given_r = Side(target=Proposition.atom(space, "W"), given=Proposition.atom(space, "R"))
        variant = replace(riemann, extra_constraints=riemann.extra_constraints + (
            ProbConstraint("equality", w_given_r, Side(const=0.5)),))
        result = find_model(variant.constraint_set(), SearchConfig(seed=1))
        assert not result.found and result.samples_used == 100_000
        assert 1 < result.restarts_refined <= 9


#: A child that runs find_model on three 6-atom sets of 21 cond_gt_cond
#: constraints over random world sets, the last with a contradicting 22nd,
#: and prints each set's mask column count and result: found,
#: samples_used, restarts_refined, penalty.hex() and the weight bytes.
WIDE_SETS_CHILD = """
import numpy as np
from analogybench import (ConstraintSet, ProbConstraint, Proposition, SearchConfig, Side,
                          WorldSpace, find_model)
from analogybench.finder import CompiledConstraints

space = WorldSpace(tuple(f"A{i}" for i in range(6)))
for seed in range(3):
    rng = np.random.default_rng([6, seed])
    joint = rng.dirichlet(np.full(64, 0.5))
    constraints = []
    while len(constraints) < 21:
        t1, g1, t2, g2 = (Proposition(space, rng.random(64) < 0.5) for _ in range(4))
        p1, p2 = joint @ g1.mask, joint @ g2.mask
        if min(p1, p2) < 0.05:
            continue
        gap = joint @ (t1.mask & g1.mask) / p1 - joint @ (t2.mask & g2.mask) / p2
        lhs, rhs = Side(target=t1, given=g1), Side(target=t2, given=g2)
        if gap < 0:
            lhs, rhs, gap = rhs, lhs, -gap
        constraints.append(ProbConstraint("cond_gt_cond", lhs, rhs, margin=0.85 * gap))
    if seed == 2:  # contradict the first: this search runs to its budget
        first = constraints[0]
        constraints.append(ProbConstraint("cond_gt_cond", first.rhs, first.lhs, margin=0.05))
    r = find_model(ConstraintSet(space, constraints), SearchConfig(seed=seed, max_samples=3072))
    print(len(CompiledConstraints(constraints).columns), r.found, r.samples_used,
          r.restarts_refined, r.penalty.hex(), r.distribution.weights.tobytes().hex())
"""


class TestBlasThreads:
    # A (C, 64) @ (64, 512) product over about 80 mask columns is large
    # enough for OpenBLAS to split it over two threads; a smaller one runs
    # on one thread whatever the setting. Same-seed results must not
    # depend on how many threads the product takes.
    def test_one_and_two_threads_give_the_same_bits(self):
        outputs = []
        for threads in ("1", "2"):
            child = subprocess.run([sys.executable, "-c", WIDE_SETS_CHILD], capture_output=True,
                                   text=True, timeout=120,
                                   env={**child_env(), "OPENBLAS_NUM_THREADS": threads})
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
        lines = outputs[0].splitlines()
        assert len(lines) == 3 and all(int(line.split()[0]) >= 70 for line in lines)
        assert outputs[0] == outputs[1]


def pow_block_descent(x, objective, pin):
    """coordinate_descent with its single moves as one pow block, the reference.

    Each sweep builds the single moves as _scale_move(x, [I; -I], delta,
    pin), 2n**2 powers, and takes one argmin over the single moves and the
    line search concatenated, so a tie goes to the earlier, single move.
    """
    start = objective(x)
    if start == 0.0:
        return x, start
    n = x.shape[0]
    single = np.concatenate([np.eye(n), -np.eye(n)])
    x0, best, delta = x, start, 0.5
    for _ in range(finder.REFINE_STEPS):
        cands = _scale_move(x, single, delta, pin)
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
        line = _scale_move(x, signs[None, :], delta * LINE_SEARCH_STEPS, pin)
        cands = np.concatenate([cands, line])
        scores = np.concatenate([scores, objective(line)])
        j = int(np.argmin(scores))
        x, best = cands[j], scores[j]
        if best == 0.0:
            break
    best = objective(x)
    if best > start:
        return x0, start
    return x, best


#: Every delta a descent reaches: it starts at 0.5 and stops once a halving
#: takes delta below 1e-7.
DESCENT_DELTAS = [0.5 * 2.0**-k for k in range(23)]


def against_pow_block_descent(monkeypatch) -> list:
    """Check every coordinate_descent call against pow_block_descent.

    Returns the list of checked calls' pins, which grows as find_model runs.
    """
    pins, descent = [], finder.coordinate_descent

    def checked(x, objective, pin):
        got = descent(x, objective, pin)
        want = pow_block_descent(x, objective, pin)
        assert got[0].tobytes() == want[0].tobytes()
        assert repr(got[1]) == repr(want[1])
        pins.append(pin)
        return got

    monkeypatch.setattr(finder, "coordinate_descent", checked)
    return pins


class TestCoordinateDescent:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("c", [None, 0.0, 0.3, 1.0])
    def test_single_moves_are_the_pow_block_to_the_bit(self, n, c):
        rng = np.random.default_rng([n, 7])
        mask = np.arange(n) % 2 == 0
        rng.shuffle(mask)
        pin = None if c is None else (mask, c)
        x = _normalise(rng.standard_exponential(n), pin)
        signs = np.concatenate([np.eye(n), -np.eye(n)])
        assert DESCENT_DELTAS[-1] >= 1e-7 > DESCENT_DELTAS[-1] / 2
        for delta in DESCENT_DELTAS:
            got = _single_moves(x, delta, pin)
            assert got.tobytes() == _scale_move(x, signs, delta, pin).tobytes(), delta

    @pytest.mark.parametrize("atoms", [4, 5, 6])
    @pytest.mark.parametrize("frac", [(0.5, 0.5), (0.8, 0.9)], ids=["slack", "tight"])
    def test_descent_is_the_pow_block_descent_to_the_bit(self, monkeypatch, atoms, frac):
        pins = against_pow_block_descent(monkeypatch)
        for seed in range(4):
            cs, config = planted_set(seed, atoms, frac)
            find_model(cs, SearchConfig(seed=config.seed, max_samples=5_000))
        assert len(pins) >= 4

    def test_pinned_descent_is_the_pow_block_descent_to_the_bit(self, monkeypatch):
        pins = against_pow_block_descent(monkeypatch)
        riemann = load_scenario(corpus_dir() / "riemann_weil.json")
        sweep_bridge_prior(riemann, [0.1, 0.3, 0.5, 0.7, 0.9],
                           SearchConfig(seed=2, max_samples=5_000))
        assert len(pins) >= 5 and all(pin is not None for pin in pins)

    @pytest.mark.parametrize("pinned,blocks", [(False, 2.5), (True, 3.5)])
    def test_no_block_outlives_its_sweep(self, pinned, blocks):
        # P(a0) > 0.6 and P(a0) < 0.4 cannot both hold, so the descent runs
        # until delta is spent. The peak, in (2n, n) blocks of 16 n**2 bytes
        # at 256 worlds, is about 2.1, and 3.1 under a pin; keeping earlier
        # sweeps' blocks alive reads 4.1 and 5.1.
        space = WorldSpace(tuple(f"a{i}" for i in range(8)))
        a0 = Proposition.atom(space, "a0")
        compiled = CompiledConstraints([
            ProbConstraint("prob_gt", Side(target=a0), Side(const=0.6)),
            ProbConstraint("prob_lt", Side(target=a0), Side(const=0.4)),
        ])
        n = space.world_count
        pin = (Proposition.atom(space, "a1").mask, 0.3) if pinned else None
        x = _normalise(np.random.default_rng(1).standard_exponential(n), pin)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _, best = coordinate_descent(x, compiled.penalty, pin)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert best > 0.0
        assert peak - start < blocks * 16 * n * n

    @pytest.mark.parametrize("seed,atoms", [(1, 4), (2, 4), (0, 5)])
    def test_a_sweep_that_reaches_zero_ends_without_its_line_search(self, seed, atoms):
        # Slack planted sets whose descent from this start ends on a sweep
        # whose single moves read 0: no line row can read below 0, and a tie
        # keeps the single move, so no line block is scored after it.
        cs, _ = planted_set(seed, atoms, (0.5, 0.5))
        compiled = CompiledConstraints(cs.constraints)
        n = cs.space.world_count
        x = np.random.default_rng(seed).dirichlet(np.ones(n))
        calls = []

        def objective(w):
            scores = compiled.penalty(w)
            calls.append((w.shape, float(np.min(scores))))
            return scores

        out, best = coordinate_descent(x, objective, None)
        assert best == 0.0
        zero = next(i for i, (_, least) in enumerate(calls) if least == 0.0)
        assert calls[zero][0] == (2 * n, n) and calls[zero + 1:] == [((n,), 0.0)]
        want = pow_block_descent(x, compiled.penalty, None)
        assert out.tobytes() == want[0].tobytes() and repr(best) == repr(want[1])

    @pytest.mark.parametrize("seed,atoms", [(5, 4), (4, 4), (0, 5), (3, 5)])
    def test_readings_of_a_search_found_by_its_first_refine(self, monkeypatch, seed, atoms):
        # One reading for the block, one for the descent's start, one per
        # sweep's single moves, one per line search, and three single-row
        # readings: the final recompute, satisfied and named_margins. Every
        # improving sweep runs a line search but the last, whose single
        # moves reach 0.
        cs, config = planted_set(seed, atoms, (0.5, 0.5))
        n = cs.space.world_count
        rows, descent_least = [], []
        read, descent = CompiledConstraints._read, finder.coordinate_descent

        def spy_read(self, w):
            rows.append(len(w.reshape(-1, n)))
            return read(self, w)

        def spy_descent(x, objective, pin):
            def spied(w):
                scores = objective(w)
                descent_least.append(float(np.min(scores)))
                return scores
            return descent(x, spied, pin)

        monkeypatch.setattr(CompiledConstraints, "_read", spy_read)
        monkeypatch.setattr(finder, "coordinate_descent", spy_descent)
        result = find_model(cs, config)
        assert result.found and result.restarts_refined == 1
        sweeps, lines = rows.count(2 * n), rows.count(len(LINE_SEARCH_STEPS))
        improving = sum(
            least < min(descent_least[:i])
            for i, (least, size) in enumerate(zip(descent_least, rows[1:])) if size == 2 * n)
        assert lines == improving - 1 and sweeps >= 2
        assert len(rows) == 2 + sweeps + lines + 3
        assert rows[:2] == [finder.BATCH_SIZE, 1] and rows[-4:] == [2 * n, 1, 1, 1]

    def test_scale_move_rows_match_one_coordinate_moves(self):
        w = np.random.default_rng(3).dirichlet(np.ones(8))
        delta = 0.37
        signs = np.concatenate([np.eye(8), -np.eye(8)])
        block = _scale_move(w, signs, delta)
        for row, (i, up) in zip(block, [(i, up) for up in (True, False) for i in range(8)]):
            ref = w.copy()
            ref[i] *= 1.0 + delta if up else 1.0 / (1.0 + delta)
            ref /= ref.sum()
            # (1 + delta) ** -1 and 1 / (1 + delta) may differ in the last bit
            np.testing.assert_array_max_ulp(row, ref, maxulp=2)

    def test_zero_start_returns_at_once(self, a_gt_half):
        compiled = CompiledConstraints(a_gt_half.constraints)
        calls = []

        def objective(w):
            calls.append(w.shape)
            return compiled.penalty(w)

        x = np.array([0.1, 0.5, 0.1, 0.3])
        out, best = coordinate_descent(x, objective, None)
        assert best == 0.0
        assert out is x
        assert calls == [(4,)]

    @pytest.mark.parametrize("seed", range(4))
    def test_best_is_objective_of_result_and_never_above_start(self, monkeypatch, seed):
        monkeypatch.setattr(finder, "REFINE_STEPS", 30)
        cs, _ = planted_set(seed, 4)
        compiled = CompiledConstraints(cs.constraints)
        x = np.random.default_rng(seed).dirichlet(np.ones(16))
        calls = []

        def objective(w):
            calls.append(w.shape)
            return compiled.penalty(w)

        out, best = coordinate_descent(x, objective, None)
        assert best == compiled.penalty(out)
        assert best <= compiled.penalty(x)
        # one block of 2n single moves, at most one line search, per sweep
        assert len(calls) <= 2 * 30 + 2
        assert all(shape[0] in (32, 5) for shape in calls[1:-1])

    def test_same_seed_same_result(self):
        cs, config = planted_set(0, 5)
        a, b = find_model(cs, config), find_model(cs, config)
        assert a.distribution.weights.tobytes() == b.distribution.weights.tobytes()
        assert (a.penalty, a.samples_used, a.restarts_refined) == (
            b.penalty, b.samples_used, b.restarts_refined)

    @pytest.mark.parametrize("seed,atoms", TIGHT_PLANTED)
    def test_tight_planted_sets_are_found(self, seed, atoms):
        # The scalar one-coordinate-at-a-time descent this replaced, at 60
        # sweeps, missed 4 of the 40 at 4-5 atoms within the 100 000-sample
        # budget. The float verdict that ends the search must also hold in
        # exact arithmetic.
        cs, config = planted_set(seed, atoms)
        result = find_model(cs, config)
        assert result.found
        assert is_satisfied(result.distribution, cs)
        assert exact_satisfied(cs.constraints, result.distribution.weights)


class TestGridEnumerate:
    def test_unconstrained_counts_compositions(self):
        space = WorldSpace(("a",))
        taut = Proposition.tautology(space)
        cs = ConstraintSet(
            space=space,
            constraints=[ProbConstraint("prob_gt", Side(target=taut), Side(const=0.5))],
        )
        # tautology constraint is always satisfied: all 5 compositions of 4 into 2 parts
        assert len(grid_enumerate(cs, resolution=4)) == 5

    def test_strict_inequality_is_exact(self):
        space = WorldSpace(("a",))
        a = Proposition.atom(space, "a")
        cs = ConstraintSet(
            space=space,
            constraints=[ProbConstraint("prob_gt", Side(target=a), Side(const=0.5))],
        )
        # world order: (!a, a); P(a) > 1/2 exactly means count 3 or 4 of 4
        result = grid_enumerate(cs, resolution=4)
        assert sorted(result) == [
            [Fraction(0), Fraction(1)],
            [Fraction(1, 4), Fraction(3, 4)],
        ]

    def test_weak_inequality_includes_boundary(self):
        space = WorldSpace(("a",))
        a = Proposition.atom(space, "a")
        taut = Proposition.tautology(space)
        cs = ConstraintSet(
            space=space,
            constraints=[
                ProbConstraint("cond_ge_cond", Side(target=a, given=taut),
                               Side(const=0.5))
            ],
        )
        result = grid_enumerate(cs, resolution=4)
        assert [Fraction(1, 2), Fraction(1, 2)] in result
        assert len(result) == 3

    def test_grid_solutions_have_zero_penalty(self, ab_space):
        a = Proposition.atom(ab_space, "a")
        b = Proposition.atom(ab_space, "b")
        cs = ConstraintSet(
            space=ab_space,
            constraints=[
                ProbConstraint("cond_gt_prob", Side(target=a, given=b), Side(target=a),
                               label="rel"),
            ],
        )
        points = grid_enumerate(cs, resolution=6)
        assert points
        for point in points:
            dist = JointDistribution(ab_space, [float(f) for f in point])
            assert penalty(dist, cs) == 0.0

    def test_budget_refusals(self, ab_space):
        big = WorldSpace(tuple(f"a{i}" for i in range(4)))  # 16 worlds
        taut = Proposition.tautology(big)
        cs = ConstraintSet(
            space=big,
            constraints=[ProbConstraint("prob_gt", Side(target=taut), Side(const=0.5))],
        )
        with pytest.raises(GridBudgetError):
            grid_enumerate(cs, resolution=4)
        a = Proposition.atom(ab_space, "a")
        small = ConstraintSet(
            space=ab_space,
            constraints=[ProbConstraint("prob_gt", Side(target=a), Side(const=0.5))],
        )
        with pytest.raises(GridBudgetError):
            grid_enumerate(small, resolution=21)
        with pytest.raises(GridBudgetError):
            grid_enumerate(small, resolution=0)

    @pytest.mark.parametrize("resolution", [True, False, 10.0, 2.5, "3", None])
    def test_resolution_must_be_an_int(self, a_gt_half, resolution):
        # Refused before any work: a bool is not a resolution, and a float
        # would be truncated or fail late.
        with pytest.raises(GridBudgetError, match="must be an int"):
            grid_enumerate(a_gt_half, resolution)


def stars_and_bars(total: int, parts: int) -> list[tuple[int, ...]]:
    """Compositions of total into parts, one per choice of bar positions."""
    slots = total + parts - 1
    rows = []
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1, *bars, slots)
        rows.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return rows


class TestCompositions:
    @pytest.mark.parametrize("parts", range(1, 9))
    def test_matches_stars_and_bars(self, parts):
        for total in range(13):
            rows = _compositions(total, parts)
            assert rows.dtype == np.int64
            assert rows.shape == (math.comb(total + parts - 1, parts - 1), parts)
            expected = stars_and_bars(total, parts)
            assert expected == sorted(expected)  # lexicographic
            assert list(map(tuple, rows.tolist())) == expected


def equality(lhs: Side, rhs: Side, margin: float = 0.0, label=None) -> ProbConstraint:
    return ProbConstraint("equality", lhs, rhs, margin=margin, label=label)


class TestMarginalPin:
    @pytest.fixture
    def abc(self):
        space = WorldSpace(("a", "b", "c"))
        return space, *(Proposition.atom(space, name) for name in space.atoms)

    def test_detects_the_first_exact_marginal_equality(self, abc):
        space, a, b, c = abc
        link = ProbConstraint("cond_gt_cond", Side(target=b, given=a),
                              Side(target=b, given=~a), margin=0.1)
        pin = _marginal_pin([link, equality(Side(target=a | c), Side(const=0.3)),
                             equality(Side(target=b), Side(const=0.6))])
        np.testing.assert_array_equal(pin[0], (a | c).mask)
        assert pin[1] == 0.3
        # the constant may stand on either side
        pin = _marginal_pin([equality(Side(const=0.25), Side(target=b))])
        np.testing.assert_array_equal(pin[0], b.mask)
        assert pin[1] == 0.25

    @pytest.mark.parametrize("case", [
        "margin", "given", "above_one", "below_zero", "empty", "every_world", "kind", "two_queries",
    ])
    def test_other_constraints_are_not_pinned(self, abc, case):
        space, a, b, c = abc
        none = Proposition(space, np.zeros(space.world_count, dtype=bool))
        constraint = {
            "margin": equality(Side(target=a), Side(const=0.3), margin=1e-3),
            "given": equality(Side(target=a, given=b), Side(const=0.3)),
            "above_one": equality(Side(target=a), Side(const=1.5)),
            "below_zero": equality(Side(target=a), Side(const=-0.1)),
            "empty": equality(Side(target=none), Side(const=0.0)),
            "every_world": equality(Side(target=~none), Side(const=1.0)),
            "kind": ProbConstraint("prob_gt", Side(target=a), Side(const=0.3)),
            "two_queries": equality(Side(target=a), Side(target=b)),
        }[case]
        assert _marginal_pin([constraint]) is None

    def test_normalise_fills_each_block_to_its_mass(self):
        mask = np.array([True, False, True, False, False])
        block = np.random.default_rng(2).standard_exponential((6, 5))
        for c in (0.0, 0.3, 1.0):
            rows = _normalise(block, (mask, c))
            np.testing.assert_allclose(rows[:, mask].sum(axis=1), c, atol=1e-15)
            np.testing.assert_allclose(rows[:, ~mask].sum(axis=1), 1.0 - c, atol=1e-15)
            # a block of mass 0 is exactly 0; the other keeps its proportions
            dead, live = (mask, ~mask) if c == 0.0 else (~mask, mask)
            if c in (0.0, 1.0):
                assert not rows[:, dead].any()
                np.testing.assert_allclose(
                    rows[:, live], block[:, live] / block[:, live].sum(axis=1, keepdims=True))

    def test_exact_marginal_equality_is_found(self, abc):
        # Without the pin, no sample or descent step met P(a) = 0.3 within
        # BOUNDARY_TOLERANCE in 100 000 samples.
        space, a, b, c = abc
        pin = equality(Side(target=a), Side(const=0.3), label="pin")
        link = ProbConstraint("cond_gt_cond", Side(target=b, given=a),
                              Side(target=b, given=~a), margin=0.1, label="link")
        for constraints in ([pin], [link, pin]):
            cs = ConstraintSet(space, constraints)
            result = find_model(cs, SearchConfig(seed=3))
            assert result.found
            assert result.samples_used == 512
            w = result.distribution.weights
            assert abs(exact_value(Side(target=a), w) - Fraction(0.3)) <= 1e-15
            assert exact_satisfied([con for con in constraints if con is not pin], w)

    def test_only_the_first_equality_is_pinned(self, abc):
        space, a, b, c = abc
        first = equality(Side(target=a), Side(const=0.3))
        second = equality(Side(target=b), Side(const=0.6))
        for pinned, other, value in ((a, b, 0.6), (b, a, 0.3)):
            order = [first, second] if pinned is a else [second, first]
            result = find_model(ConstraintSet(space, order),
                                SearchConfig(seed=1, max_samples=2_000))
            w = result.distribution.weights
            pinned_value = 0.3 if pinned is a else 0.6
            assert abs(exact_value(Side(target=pinned), w) - Fraction(pinned_value)) <= 1e-15
            # the second equality is an ordinary constraint: the descent
            # approaches it but does not meet it within BOUNDARY_TOLERANCE
            assert not result.found
            assert abs(exact_value(Side(target=other), w) - Fraction(value)) > 1e-12

    def test_planted_pinned_sets_are_found_exactly(self):
        # A Dirichlet(0.5) joint plants cond_gt_cond constraints at half their
        # gap, plus the exact marginal of a random world set under it.
        for seed in range(20):
            rng = np.random.default_rng([31, seed])
            space = WorldSpace(tuple("abcd"[: int(rng.integers(2, 5))]))
            joint = rng.dirichlet(np.full(space.world_count, 0.5))
            target = random_event(space, rng)
            while not 0.02 < joint @ target.mask < 0.98:
                target = random_event(space, rng)
            pin = equality(Side(target=target), Side(const=float(joint @ target.mask)))
            constraints = []
            while len(constraints) < 2 * len(space.atoms):
                t1, g1, t2, g2 = (random_event(space, rng) for _ in range(4))
                p1, p2 = joint @ g1.mask, joint @ g2.mask
                if min(p1, p2) < 0.05:
                    continue
                gap = joint @ (t1.mask & g1.mask) / p1 - joint @ (t2.mask & g2.mask) / p2
                lhs, rhs = Side(target=t1, given=g1), Side(target=t2, given=g2)
                if gap < 0:
                    lhs, rhs, gap = rhs, lhs, -gap
                if gap >= 0.05:
                    constraints.append(ProbConstraint("cond_gt_cond", lhs, rhs, margin=gap / 2))
            result = find_model(ConstraintSet(space, constraints + [pin]), SearchConfig(seed=seed))
            assert result.found, seed
            w = result.distribution.weights
            assert abs(exact_value(pin.lhs, w) - Fraction(pin.rhs.const)) <= 1e-15
            assert exact_satisfied(constraints, w), seed

    @pytest.fixture
    def abg(self):
        space = WorldSpace(("a", "b", "g"))
        return space, Proposition.atom(space, "a"), Proposition.atom(space, "g")

    @staticmethod
    def solve_pinned(space, constraint, g, mass):
        pin = equality(Side(target=g), Side(const=mass), label="bridge_prior")
        return find_model(ConstraintSet(space, [constraint, pin]), SearchConfig(seed=1))

    def test_extremal_pin_leaves_the_dead_block_zero(self, abg):
        space, a, g = abg
        above = ProbConstraint("prob_gt", Side(target=a), Side(const=0.6), label="a")
        for mass in (0.0, 1.0):
            result = self.solve_pinned(space, above, g, mass)
            assert result.found
            w = result.distribution.weights
            dead = ~g.mask if mass == 1.0 else g.mask
            assert not w[dead].any()
            assert w[~dead].sum() == pytest.approx(1.0, abs=1e-15)
            assert exact_satisfied([above], w)

    def test_condition_on_the_dead_block_is_not_found(self, abg):
        # Under P(g) = 0 the conditional P(a|g) is undefined on every row: each
        # reading of the search divides 0/0 in the search's one error state,
        # and runs silent, since the suite turns a RuntimeWarning into an error.
        space, a, g = abg
        raised = ProbConstraint("cond_gt_prob", Side(target=a, given=g), Side(target=a),
                                margin=0.05, label="rel")
        result = self.solve_pinned(space, raised, g, 0.0)
        cs = ConstraintSet(space, [raised, equality(Side(target=g), Side(const=0.0),
                                                    label="bridge_prior")])
        got = (result.found, result.samples_used, result.restarts_refined,
               repr(result.penalty), result.distribution.weights.tobytes())
        assert got == one_batch_at_a_time(cs, SearchConfig(seed=1))
        assert not result.found
        assert result.penalty == finder.UNDEFINED_PENALTY
        w = result.distribution.weights
        assert not w[g.mask].any()
        assert np.isfinite(w).all()
