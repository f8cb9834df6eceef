import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from analogybench import (
    JointDistribution,
    Proposition,
    UndefinedConditionalError,
    WorldSpace,
    check_transitivity,
    confirm,
    conditional,
    fuzz_transitivity,
    mine_naive_transitivity_counterexample,
    probability,
)
from analogybench import confirmation, finder
from analogybench.confirmation import (
    FUZZ_REVERIFY_CAP,
    MINER_CONFIRM_MARGIN,
    MINER_DISCONFIRM_MARGIN,
    Counterexample,
    TransitivityReport,
    _judge,
    _naive_chain,
    transitivity_constraints,
)
from analogybench.finder import CompiledConstraints, ConstraintSet, SearchConfig, sample_blocks
from analogybench.prob import (
    InvalidDistributionError,
    SpaceMismatchError,
    check_weights,
    normalised,
)

from conftest import exact_satisfied
from test_finder import one_batch_at_a_time


class TestConfirm:
    def test_four_world_example(self, ab_dist, ab_space):
        # P(a|b) = 0.75, P(a) = 0.5
        verdict = confirm(
            ab_dist,
            Proposition.atom(ab_space, "b"),
            Proposition.atom(ab_space, "a"),
        )
        assert verdict.confirms
        assert verdict.degree == pytest.approx(0.25)
        assert verdict.measures["difference"] == pytest.approx(0.25)
        assert verdict.measures["ratio"] == pytest.approx(1.5)
        assert verdict.measures["log_likelihood"] > 0.0

    def test_irrelevant_evidence(self, ab_space):
        dist = JointDistribution.uniform(ab_space)
        verdict = confirm(
            dist,
            Proposition.atom(ab_space, "b"),
            Proposition.atom(ab_space, "a"),
        )
        assert not verdict.confirms
        assert verdict.degree == pytest.approx(0.0, abs=1e-12)

    def test_disconfirming_evidence(self, ab_dist, ab_space):
        # P(a|!b) = 0.2/0.6 < 0.5 = P(a)
        verdict = confirm(
            ab_dist,
            ~Proposition.atom(ab_space, "b"),
            Proposition.atom(ab_space, "a"),
        )
        assert not verdict.confirms
        assert verdict.degree < 0.0

    # Evidence b, hypothesis a (world bit 0 is a, bit 1 is b). ratio needs
    # P(h) > 0; log_likelihood needs P(e|h) and P(e|!h) defined and positive.
    @pytest.mark.parametrize("weights,measures", [
        ([0.5, 0.0, 0.5, 0.0], {"difference"}),  # P(h) = 0
        ([0.0, 0.5, 0.0, 0.5], {"difference", "ratio"}),  # P(h) = 1
        ([0.4, 0.3, 0.3, 0.0], {"difference", "ratio"}),  # P(e|h) = 0
    ])
    def test_undefined_measures_are_left_out(self, ab_space, weights, measures):
        dist = JointDistribution(ab_space, weights)
        verdict = confirm(dist, Proposition.atom(ab_space, "b"), Proposition.atom(ab_space, "a"))
        assert set(verdict.measures) == measures
        assert verdict.measures["difference"] == verdict.degree

    def test_zero_probability_evidence(self, ab_space):
        dist = JointDistribution(ab_space, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(UndefinedConditionalError):
            confirm(dist, Proposition.atom(ab_space, "a"), Proposition.atom(ab_space, "b"))


class TestCheckTransitivity:
    def test_all_conditions_hold_implies_conclusion(self, xyz_space):
        # Chain structure: z likely given y, x correlated with y, x harmless for z.
        x = Proposition.atom(xyz_space, "x")
        y = Proposition.atom(xyz_space, "y")
        z = Proposition.atom(xyz_space, "z")
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(500):
            dist = JointDistribution.from_unnormalized(
                xyz_space, rng.standard_exponential(8)
            )
            report = check_transitivity(dist, x, y, z)
            if report.antecedent_holds:
                found += 1
                assert report.conclusion.holds, dist.weights
        assert found > 0

    def test_margins_are_reported(self, xyz_space):
        x = Proposition.atom(xyz_space, "x")
        y = Proposition.atom(xyz_space, "y")
        z = Proposition.atom(xyz_space, "z")
        dist = JointDistribution.uniform(xyz_space)
        report = check_transitivity(dist, x, y, z)
        assert list(report.conditions) == [c.label for c in transitivity_constraints(x, y, z)[:4]]
        for cond in report.conditions.values():
            assert cond.applicable
            assert cond.margin == pytest.approx(0.0, abs=1e-12)
            assert cond.at_boundary
        # independence: strict conditions fail at equality, weak ones hold
        assert not report.conditions["i"].holds
        assert not report.conditions["ii"].holds
        assert report.conditions["iii"].holds
        assert report.conditions["iv"].holds
        assert not report.conclusion.holds

    def test_strict_margin_raises_the_bar(self, xyz_space):
        x = Proposition.atom(xyz_space, "x")
        y = Proposition.atom(xyz_space, "y")
        z = Proposition.atom(xyz_space, "z")
        rng = np.random.default_rng(11)
        dist = None
        for _ in range(200):
            cand = JointDistribution.from_unnormalized(
                xyz_space, rng.standard_exponential(8)
            )
            report = check_transitivity(cand, x, y, z)
            if report.antecedent_holds and report.conditions["i"].margin < 0.4:
                dist = cand
                break
        assert dist is not None
        assert not check_transitivity(dist, x, y, z, margin=0.9).antecedent_holds

    def test_undefined_conditional_is_inapplicable(self, xyz_space):
        # All mass on !y worlds: conditions conditioning on y are inapplicable.
        weights = np.zeros(8)
        weights[0] = 0.5  # !x !y !z
        weights[1] = 0.5  # x !y !z
        dist = JointDistribution(xyz_space, weights)
        x = Proposition.atom(xyz_space, "x")
        y = Proposition.atom(xyz_space, "y")
        z = Proposition.atom(xyz_space, "z")
        report = check_transitivity(dist, x, y, z)
        assert not report.conditions["i"].applicable
        assert math.isnan(report.conditions["i"].margin)
        assert not report.conditions["i"].holds
        assert not report.antecedent_holds

    def test_tautological_bridge_is_no_confirmation(self):
        # P(H | B | !B) and P(H) are one row of the kernel: the margin of (i)
        # is exactly 0 on every joint, never a rounding difference.
        space = WorldSpace(("E", "B", "H"))
        e, b, h = (Proposition.atom(space, name) for name in space.atoms)
        rng = np.random.default_rng(0)
        for _ in range(200):
            dist = JointDistribution.from_unnormalized(space, rng.standard_exponential(8))
            report = check_transitivity(dist, e, b | ~b, h)
            assert report.conditions["i"].margin == 0.0
            assert not report.conditions["i"].holds

    def test_other_space_of_the_same_size_rejected(self, xyz_space):
        x, y, z = (Proposition.atom(xyz_space, name) for name in xyz_space.atoms)
        other = JointDistribution.uniform(WorldSpace(("p", "q", "r")))
        with pytest.raises(SpaceMismatchError):
            check_transitivity(other, x, y, z)
        with pytest.raises(SpaceMismatchError):
            Counterexample(other, x, y, z, samples_used=1).verify()

    def test_conclusion_direction_is_strictly_greater(self, xyz_space):
        dist = JointDistribution.uniform(xyz_space)
        report = check_transitivity(
            dist,
            Proposition.atom(xyz_space, "x"),
            Proposition.atom(xyz_space, "y"),
            Proposition.atom(xyz_space, "z"),
        )
        # under the uniform distribution P(z|x) = P(z): margin 0, which a
        # strict conclusion does not accept
        assert report.conclusion.margin == 0.0
        assert not report.conclusion.holds


class TestMiner:
    def test_finds_verified_counterexample(self):
        ce = mine_naive_transitivity_counterexample(seed=1, budget=100_000)
        assert ce is not None
        assert ce.verify()
        d = ce.distribution
        assert conditional(d, ce.y, ce.x) - probability(d, ce.y) > MINER_CONFIRM_MARGIN
        assert conditional(d, ce.z, ce.y) - probability(d, ce.z) > MINER_CONFIRM_MARGIN
        assert conditional(d, ce.z, ce.x) - probability(d, ce.z) < -MINER_DISCONFIRM_MARGIN

    def test_deterministic_for_seed(self):
        first = mine_naive_transitivity_counterexample(seed=1, budget=50_000)
        second = mine_naive_transitivity_counterexample(seed=1, budget=50_000)
        assert first is not None and second is not None
        assert first.samples_used == second.samples_used
        np.testing.assert_array_equal(
            first.distribution.weights, second.distribution.weights
        )

    def test_counterexample_breaks_some_transitivity_condition(self):
        ce = mine_naive_transitivity_counterexample(seed=1, budget=100_000)
        assert ce is not None
        report = check_transitivity(ce.distribution, ce.x, ce.y, ce.z)
        assert not report.antecedent_holds
        assert any(not c.holds for c in report.conditions.values())

    def test_exhausted_budget_returns_none(self, monkeypatch):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            mine_naive_transitivity_counterexample(seed=1, budget=0)
        # P(B|A) - P(B) <= 1, so no distribution holds the chain at margin 1.
        monkeypatch.setattr(confirmation, "MINER_CONFIRM_MARGIN", 1.0)
        assert mine_naive_transitivity_counterexample(seed=1, budget=2_000) is None

    @pytest.mark.parametrize("budget", [1, 7, 100_000])
    def test_every_seed_finds_an_exact_counterexample(self, budget):
        for seed in range(1, 201):
            ce = mine_naive_transitivity_counterexample(seed, budget)
            assert ce is not None and ce.verify(), seed
            assert exact_satisfied(_naive_chain(ce.x, ce.y, ce.z), ce.distribution.weights), seed


class TestMinerBlocks:
    # The miner is one find_model solve of its full budget, so it gives what
    # test_finder.py's reference walk, one draw and one penalty call per
    # batch, gives on the same set. At a BATCH_SIZE of 1 every batch is one
    # row, and find_model walks its blocks of 1, 2, 4, ... rows row by row:
    # sample_blocks and find_model read finder.BATCH_SIZE when they are called.
    @pytest.mark.parametrize("first_block", [1, 512])
    @pytest.mark.parametrize("budget", [1, 3, 7, 511, 512, 513, 100_000])
    def test_matches_full_budget_draw(self, budget, first_block, monkeypatch):
        monkeypatch.setattr(finder, "BATCH_SIZE", first_block)
        space = WorldSpace(("A", "B", "C"))
        a, b, c = (Proposition.atom(space, name) for name in space.atoms)
        cs = ConstraintSet(space, _naive_chain(a, b, c))
        for seed in range(1, 51):
            ce = mine_naive_transitivity_counterexample(seed, budget)
            found, used, _, _, weights = one_batch_at_a_time(cs, SearchConfig(seed, budget))
            assert found and ce is not None, seed
            assert (ce.samples_used, ce.distribution.weights.tobytes()) == (used, weights), seed


def fuzz_one_draw(samples: int, seed: int, margin: float):
    """fuzz_transitivity as one draw of every row, the reference.

    Conditions (i)-(iv) and the conclusion are written out as mask sums
    over the whole (samples, 8) draw; the first FUZZ_REVERIFY_CAP filtered
    rows go through check_transitivity.
    """
    space = WorldSpace(("X", "Y", "Z"))
    x, y, z = (Proposition.atom(space, name) for name in space.atoms)
    raw = np.random.default_rng(seed).standard_exponential((samples, 8))
    w = raw / raw.sum(axis=1, keepdims=True)

    def p(target, given=None):
        if given is None:
            return w @ target.mask
        with np.errstate(invalid="ignore", divide="ignore"):
            return (w @ (target & given).mask) / (w @ given.mask)

    kept = (
        (p(z, y) - p(z) > margin)
        & (p(x, y) - p(x, ~y) > margin)
        & (p(z, x & y) - p(z, y) >= -1e-12)
        & (p(z, x & ~y) - p(z, ~y) >= -1e-12)
    )
    conclusion = (p(z, x) - p(z))[kept]
    reverified = 0
    for row in w[kept][:FUZZ_REVERIFY_CAP]:
        report = check_transitivity(JointDistribution.from_unnormalized(space, row), x, y, z,
                                    margin=margin)
        reverified += report.antecedent_holds and report.conclusion.holds
    return int(kept.sum()), int(np.count_nonzero(conclusion <= 0.0)), reverified, conclusion


def three_compile_fuzz(samples: int, seed: int, margin: float):
    """fuzz_transitivity with its list compiled three times, the reference.

    The conditions, the conclusion and all five are compiled on their own.
    Each block is read twice: the conditions on every row, then the
    conclusion on the kept rows; the re-check judges over all five. Returns
    (samples, filtered, violations, reverified, min_conclusion_margin.hex()).
    """
    space = WorldSpace(("X", "Y", "Z"))
    x, y, z = (Proposition.atom(space, name) for name in space.atoms)
    constraints = transitivity_constraints(x, y, z, margin)
    antecedent = CompiledConstraints(constraints[:4])
    concluded = CompiledConstraints(constraints[4:])
    checks = CompiledConstraints(constraints)
    filtered = violations = reverified = 0
    min_margin = math.inf
    for weights in sample_blocks(np.random.default_rng(seed), space.world_count, samples):
        kept = weights[antecedent.satisfied(weights)]
        (margins,) = concluded.margins(kept)
        violations += int(np.count_nonzero(margins <= 0.0))
        min_margin = min(min_margin, margins.min(initial=math.inf))
        if filtered < FUZZ_REVERIFY_CAP:
            head = normalised(kept[:FUZZ_REVERIFY_CAP - filtered])
            check_weights(head)
            reverified += sum(map(checks.scalar_satisfied, head))
        filtered += len(kept)
    conclusion = float(min_margin) if filtered else float("nan")
    return samples, filtered, violations, reverified, conclusion.hex()


@st.composite
def dyadic_joint(draw):
    """Sixteenths over the 8 worlds of x, y, z, often with empty worlds."""
    support = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    units = draw(st.lists(st.sampled_from(support), min_size=16, max_size=16))
    return np.bincount(units, minlength=8) / 16


class TestJudgeTransitivity:
    @given(
        weights=st.lists(dyadic_joint(), min_size=1, max_size=4),
        masks=st.lists(st.integers(1, 254), min_size=3, max_size=3),
        margin=st.sampled_from([0.0, 1e-6, 0.125]),
    )
    @example(  # no mass on y: (i) and (iii) are undefined
        weights=[np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])],
        masks=[0b10101010, 0b11001100, 0b11110000],
        margin=0.0,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_check_transitivity(self, weights, masks, margin):
        space = WorldSpace(("x", "y", "z"))
        x, y, z = (Proposition(space, [(m >> k) & 1 for k in range(8)]) for m in masks)
        # built and compiled once, judged for every joint
        constraints = transitivity_constraints(x, y, z, margin)
        labels = [c.label for c in constraints]
        compiled = CompiledConstraints(constraints)
        for w in weights:
            dist = JointDistribution(space, w)
            *conditions, conclusion = _judge(dist, compiled)
            assert TransitivityReport(dict(zip(labels, conditions)), conclusion) == (
                check_transitivity(dist, x, y, z, margin))

    def test_fuzz_builds_the_sides_once(self, monkeypatch):
        calls, compiles = [], []

        def counted(*args, **kwargs):
            calls.append(args)
            return transitivity_constraints(*args, **kwargs)

        def compiled(constraints):
            compiles.append(constraints)
            return CompiledConstraints(constraints)

        monkeypatch.setattr(confirmation, "transitivity_constraints", counted)
        monkeypatch.setattr(confirmation, "CompiledConstraints", compiled)
        report = fuzz_transitivity(samples=20_000, seed=3, margin=1e-6)
        assert report.filtered > FUZZ_REVERIFY_CAP
        assert report.reverified == FUZZ_REVERIFY_CAP
        assert len(calls) == 1
        assert len(compiles) == 1

    @pytest.mark.parametrize("margin", [-0.1, float("nan")])
    def test_negative_or_nan_margin_rejected(self, xyz_space, margin):
        x, y, z = (Proposition.atom(xyz_space, name) for name in xyz_space.atoms)
        dist = JointDistribution.uniform(xyz_space)
        with pytest.raises(ValueError, match="margin"):
            check_transitivity(dist, x, y, z, margin)


class TestFuzz:
    # Blocks double from BATCH_SIZE = 512 rows to LOOKAHEAD_VALUES // 8 = 4 096:
    # one row, either side of the first block's end, one past the start of
    # the first 4 096-row block (512 + 1 024 + 2 048 = 3 584), two inside it,
    # and several blocks with the reverification cap reached in the middle
    # of one; each at margins 0 and 0.05 besides the CLI's default, 1e-6, whose
    # cases are named by their sample count alone.
    @pytest.mark.parametrize("samples,margin", [
        pytest.param(samples, margin, id=str(samples) if margin == 1e-6 else f"{samples}-{margin}")
        for margin in (1e-6, 0.0, 0.05)
        for samples in (1, 511, 513, 3_585, 4_095, 4_097, 20_000)])
    def test_blocks_match_one_draw(self, samples, margin):
        report = fuzz_transitivity(samples=samples, seed=11, margin=margin)
        filtered, violations, reverified, conclusion = fuzz_one_draw(samples, 11, margin)
        assert (report.filtered, report.violations, report.reverified) == (
            filtered, violations, reverified)
        if filtered:
            assert abs(report.min_conclusion_margin - conclusion.min()) <= 1e-12
        else:
            assert math.isnan(report.min_conclusion_margin)

    @pytest.mark.parametrize("margin", [0.0, 1e-6, 0.05])
    @pytest.mark.parametrize("samples", [1, 511, 513, 3_585, 4_097, 20_000])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_one_reading_is_the_three_compile_loop_to_the_bit(self, seed, samples, margin):
        r = fuzz_transitivity(samples=samples, seed=seed, margin=margin)
        got = (r.samples, r.filtered, r.violations, r.reverified, r.min_conclusion_margin.hex())
        assert got == three_compile_fuzz(samples, seed, margin)

    def test_memory_stays_one_block(self):
        # One (400 000, 8) draw alone is 25.6 MB.
        tracemalloc.start()
        try:
            report = fuzz_transitivity(samples=400_000, seed=2, margin=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.filtered > 0
        assert peak < 4e6

    def test_small_run_has_zero_violations(self):
        report = fuzz_transitivity(samples=5_000, seed=3, margin=1e-6)
        assert report.samples == 5_000
        assert report.filtered > 0
        assert report.violations == 0
        assert report.min_conclusion_margin > 0.0

    def test_scalar_reverification_agrees(self):
        # 20 000 samples leave about 1 500 filtered cases, past the cap
        report = fuzz_transitivity(samples=20_000, seed=3, margin=1e-6)
        assert report.filtered > FUZZ_REVERIFY_CAP == 500
        assert report.reverified == FUZZ_REVERIFY_CAP

    def test_deterministic(self):
        a = fuzz_transitivity(samples=2_000, seed=5, margin=1e-6)
        b = fuzz_transitivity(samples=2_000, seed=5, margin=1e-6)
        assert a == b


def reference_verdict(dist, x, y, z, margin) -> bool:
    """(i)-(iv) and the conclusion from prob.conditional and prob.probability:
    (i) and (ii) past margin, (iii) and (iv) within 1e-12 of 0, the
    conclusion past 0; False when a conditional is undefined."""
    try:
        i = conditional(dist, z, y) - probability(dist, z)
        ii = conditional(dist, x, y) - conditional(dist, x, ~y)
        iii = conditional(dist, z, x & y) - conditional(dist, z, y)
        iv = conditional(dist, z, x & ~y) - conditional(dist, z, ~y)
        conclusion = conditional(dist, z, x) - probability(dist, z)
    except UndefinedConditionalError:
        return False
    return i > margin and ii > margin and iii >= -1e-12 and iv >= -1e-12 and conclusion > 0.0


class TestBlockRecheck:
    """The fuzz re-check: the kept rows normalised as one block, and judged
    as one block over one compiled list of all five constraints."""

    def test_block_normalisation_is_from_unnormalized(self):
        space = WorldSpace(("X", "Y", "Z"))
        raw = np.random.default_rng(5).standard_exponential((20_000, 8))
        raw[::3, 2] = 0.0
        raw[::7, 5:] = 0.0
        expected = [JointDistribution.from_unnormalized(space, row).weights for row in raw]
        assert normalised(raw).tobytes() == np.array(expected).tobytes()

    @given(rows=st.lists(
        st.lists(st.floats(0.0, 1e6), min_size=8, max_size=8).filter(any),
        min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_block_normalisation_is_from_unnormalized_row_by_row(self, rows):
        # Zeros and subnormal weights included.
        space = WorldSpace(("X", "Y", "Z"))
        block = normalised(np.array(rows))
        for got, row in zip(block, rows):
            assert got.tobytes() == JointDistribution.from_unnormalized(space, row).weights.tobytes()

    @given(weights=st.lists(dyadic_joint(), min_size=1, max_size=4),
           margin=st.sampled_from([0.0, 1e-6, 0.125]))
    @example(  # no mass on y: (i) and (iii) are undefined
        weights=[np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])], margin=0.0)
    @example(  # (iii) and (iv) exactly on their floor, every condition holding
        weights=[np.array([3, 3, 1, 3, 1, 1, 1, 3]) / 16], margin=0.0)
    @settings(max_examples=200, deadline=None)
    def test_row_verdict_is_the_split_verdict(self, weights, margin):
        space = WorldSpace(("X", "Y", "Z"))
        x, y, z = (Proposition.atom(space, name) for name in space.atoms)
        constraints = transitivity_constraints(x, y, z, margin)
        checks = CompiledConstraints(constraints)
        # The same verdict over two lists: the conditions, then the conclusion.
        antecedent = CompiledConstraints(constraints[:4])
        concluded = CompiledConstraints(constraints[4:])
        for w in weights:
            row = normalised(w)
            verdict = checks.scalar_satisfied(row)
            assert verdict is (antecedent.scalar_satisfied(row) and concluded.scalar_satisfied(row))
            assert verdict == reference_verdict(JointDistribution(space, w), x, y, z, margin)

    def test_weak_floor_and_undefined_rows(self):
        space = WorldSpace(("X", "Y", "Z"))
        x, y, z = (Proposition.atom(space, name) for name in space.atoms)
        checks = CompiledConstraints(transitivity_constraints(x, y, z))
        on_floor = JointDistribution(space, np.array([3, 3, 1, 3, 1, 1, 1, 3]) / 16)
        report = check_transitivity(on_floor, x, y, z)
        assert report.conditions["iii"].margin == report.conditions["iv"].margin == 0.0
        assert report.antecedent_holds and report.conclusion.holds
        assert checks.scalar_satisfied(on_floor.weights)
        assert not checks.scalar_satisfied(np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0]))

    def test_reverified_counts_verdicts(self, monkeypatch):
        # At seed 3 every one of the FUZZ_REVERIFY_CAP re-checked rows holds
        # (TestFuzz.test_scalar_reverification_agrees); rejecting every third
        # row's verdict, counted across the block calls, must take exactly
        # that many off reverified.
        judged = []
        holds = CompiledConstraints.scalar_satisfied

        def every_third_rejected(self, block):
            verdicts = holds(self, block)
            assert block.ndim == 2 and verdicts.shape == (len(block),)
            third = (len(judged) + np.arange(len(block))) % 3 == 2
            judged.extend(block)
            return verdicts & ~third

        monkeypatch.setattr(CompiledConstraints, "scalar_satisfied", every_third_rejected)
        report = fuzz_transitivity(samples=20_000, seed=3, margin=1e-6)
        assert report.filtered > FUZZ_REVERIFY_CAP
        assert len(judged) == FUZZ_REVERIFY_CAP
        assert report.reverified == FUZZ_REVERIFY_CAP - FUZZ_REVERIFY_CAP // 3

    def test_zero_mass_row_rejected(self):
        block = np.ones((3, 8))
        block[1] = 0.0
        with pytest.raises(InvalidDistributionError, match="nonpositive total mass"):
            normalised(block)
        with pytest.raises(InvalidDistributionError, match="nonpositive total mass"):
            JointDistribution.from_unnormalized(WorldSpace(("X", "Y", "Z")), block[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_block_checked_as_a_distribution(self, bad):
        block = np.full((3, 8), 0.125)
        block[2, 4] = bad
        with pytest.raises(InvalidDistributionError,
                           match="^weights must be finite and nonnegative$"):
            check_weights(block)
        with pytest.raises(InvalidDistributionError, match="^weights sum to 2.0, not 1$"):
            check_weights(normalised(np.ones((3, 8))) * [[1], [2], [1]])
