import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from analogybench import (
    BridgeSpec,
    ConstraintSet,
    JointDistribution,
    ProbConstraint,
    Proposition,
    Scenario,
    SearchConfig,
    Side,
    WorldSpace,
    conditional,
    confirm,
    entails,
    euler_characteristic,
    evaluate_schema,
    extend_with_bridge,
    load_corpus,
    load_scenario,
    probability,
    symmetry_baseline,
)
from analogybench.cli import EXIT_VALIDATION, main
from analogybench.finder import is_satisfied, penalty
from analogybench.scenarios import (
    PLATONIC_SOLIDS,
    InfeasibleExtensionError,
    ScenarioFormatError,
    _repair_marginal,
    corpus_dir,
    extended_space,
)

from conftest import exact_satisfied, exact_value, random_distribution, run_capped


CORPUS_NAMES = {
    "euler_cauchy",
    "euler_polya",
    "riemann_weil",
    "taylor_series",
    "volume",
    "volume_star",
}


def corpus_by_name():
    return {s.name: s for s in load_corpus()}


class TestCorpusLoading:
    def test_six_scenarios(self):
        scenarios = load_corpus()
        assert {s.name for s in scenarios} == CORPUS_NAMES
        assert len(scenarios) == 6

    def test_roles_and_schemas(self):
        by_name = corpus_by_name()
        assert by_name["riemann_weil"].schema == "type1"
        assert by_name["taylor_series"].schema == "type2"
        assert by_name["euler_cauchy"].labels == ("i", "j", "k", "l")
        assert by_name["euler_polya"].labels == ("m", "n", "o", "p")
        for s in by_name.values():
            assert set(s.roles) == {"hypothesis", "evidence", "bridge"}

    def test_validation_names_file_and_field(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({"name": "broken", "atoms": ["A", "B"]}))
        with pytest.raises(ScenarioFormatError, match="broken.json"):
            load_scenario(bad)
        with pytest.raises(ScenarioFormatError, match="schema"):
            load_scenario(bad)

    def test_rejects_bad_role_formula(self, tmp_path):
        bad = tmp_path / "bad_role.json"
        bad.write_text(json.dumps({
            "name": "bad_role",
            "atoms": ["A", "B", "C"],
            "schema": "type1",
            "roles": {"hypothesis": "A", "evidence": "Q", "bridge": "B"},
            "distribution": {"margins": {"a": 0.05}},
        }))
        with pytest.raises(ScenarioFormatError, match="roles.evidence"):
            load_scenario(bad)

    def test_rejects_wrong_weight_count(self, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({
            "name": "short",
            "atoms": ["A", "B", "C"],
            "schema": "type1",
            "roles": {"hypothesis": "A", "evidence": "B", "bridge": "C"},
            "distribution": {"weights": [0.5, 0.5]},
        }))
        with pytest.raises(ScenarioFormatError, match="weights"):
            load_scenario(bad)

    def test_rejects_coincident_roles(self, tmp_path):
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps({
            "name": "dup",
            "atoms": ["A", "B"],
            "schema": "type1",
            "roles": {"hypothesis": "A", "evidence": "A", "bridge": "B"},
            "distribution": {"margins": {"a": 0.05}},
        }))
        with pytest.raises(ScenarioFormatError, match="distinct"):
            load_scenario(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "nope.json")

    @pytest.mark.parametrize("labels", [
        ["a", "a", "c", "d"], ["a", "b", "c"], "abcd", ["a", "b", "c", 4],
    ])
    def test_rejects_condition_labels_not_four_distinct_strings(self, tmp_path, labels):
        # Under these weights condition (i) fails and (ii)-(iv) hold, so a
        # repeated label would let (ii) hide (i) in the report.
        bad = tmp_path / "labels.json"
        bad.write_text(json.dumps({
            "name": "labels",
            "atoms": ["H", "E", "B"],
            "schema": "type1",
            "roles": {"hypothesis": "H", "evidence": "E", "bridge": "B"},
            "condition_labels": labels,
            "distribution": {
                "weights": [0.167, 0.083, 0.028, 0.194, 0.194, 0.028, 0.139, 0.167],
            },
        }))
        with pytest.raises(ScenarioFormatError, match="condition_labels"):
            load_scenario(bad)

    def test_rejects_margin_for_unknown_label(self, tmp_path):
        data = json.loads((corpus_dir() / "volume.json").read_text())
        margins = data["distribution"]["margins"]
        margins["A_typo"] = margins.pop("a")
        bad = tmp_path / "volume_typo.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="'A_typo'"):
            load_scenario(bad)

    @pytest.mark.parametrize("key, value", [
        ("margins", {"A_typo": 0.5}),
        ("constraints", [{"kind": "bogus"}]),
        ("seed", "not-an-int"),
    ])
    def test_rejects_solver_keys_beside_weights(self, tmp_path, key, value):
        data = json.loads((corpus_dir() / "euler_polya.json").read_text())
        data["distribution"][key] = value
        bad = tmp_path / "euler_polya_extra.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match=f"distribution.{key}"):
            load_scenario(bad)

    @pytest.mark.parametrize("field, edit", [
        ("roles.bridge", lambda d: d["roles"].update(bridge=5)),
        ("distribution.constraints[0].lhs.target",
         lambda d: d["distribution"]["constraints"][0]["lhs"].update(target=["R"])),
        ("distribution", lambda d: d.update(distribution="weights")),
        ("distribution.margins", lambda d: d["distribution"].update(margins=[0.05])),
        ("distribution.margins.a", lambda d: d["distribution"]["margins"].update(a=None)),
        ("distribution.constraints",
         lambda d: d["distribution"].update(constraints={"kind": "prob_gt"})),
        ("distribution.constraints[0]",
         lambda d: d["distribution"]["constraints"].__setitem__(0, "prob_gt")),
        ("distribution.weights[7]",
         lambda d: d.update(distribution={"weights": [0.125] * 7 + [None]})),
        ("distribution.seed", lambda d: d["distribution"].update(seed=1.7)),
        ("distribution.seed", lambda d: d["distribution"].update(seed=True)),
        ("distribution.seed", lambda d: d["distribution"].update(seed=-1)),
        ("distribution.weights", lambda d: d.update(distribution={"weights": [0.25] * 8})),
        ("distribution.weights",
         lambda d: d.update(distribution={"weights": [0.5, -0.25] + [0.125] * 6})),
        ("distribution.constraints[0].label",
         lambda d: d["distribution"]["constraints"][0].update(label=["x"])),
        ("notes", lambda d: d.update(notes=5)),
        ("baseline", lambda d: d.update(baseline="x")),
        ("baseline.delta", lambda d: d.update(baseline={"source_quotient": 0.95, "delta": "x"})),
        ("baseline.source_quotient",
         lambda d: d.update(baseline={"source_quotient": 1.5, "delta": 0.1})),
        ("baseline.source_quotient",
         lambda d: d.update(baseline={"source_quotient": -0.25, "delta": 0.0})),
        ("baseline.delta", lambda d: d.update(baseline={"source_quotient": 0.5, "delta": 0.75})),
        ("baseline.delta", lambda d: d.update(baseline={"source_quotient": 0.5, "delta": -0.1})),
        ("distribution.margins.a", lambda d: d["distribution"]["margins"].update(a=-0.1)),
        ("distribution.constraints[0].margin",
         lambda d: d["distribution"]["constraints"][0].update(margin=-0.1)),
        ("distribution.constraints[0].kind",
         lambda d: d["distribution"]["constraints"][0].update(kind="prob_gte")),
    ], ids=["bridge-int", "target-list", "distribution-string", "margins-list", "margin-null",
            "constraints-object", "constraint-string", "weight-null", "seed-float", "seed-bool",
            "seed-negative", "weights-sum", "weights-negative",
            "label-list", "notes-int", "baseline-string", "baseline-value-string",
            "baseline-quotient-above-1", "baseline-quotient-negative",
            "baseline-delta-above-quotient", "baseline-delta-negative",
            "margins-negative", "margin-negative", "kind-unknown"])
    def test_rejects_wrongly_typed_field(self, tmp_path, capsys, field, edit):
        data = json.loads((corpus_dir() / "riemann_weil.json").read_text())
        edit(data)
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match=f"field '{re.escape(field)}'"):
            load_scenario(bad)
        assert main(["check", str(bad), "--json"]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    # json.loads reads NaN, Infinity and -Infinity, and an integer literal
    # past the float range, which float() cannot convert.
    @pytest.mark.parametrize("field, edit", [
        ("distribution.constraints[0].rhs.const",
         lambda d: d["distribution"]["constraints"][0]["rhs"].update(const=math.inf)),
        ("distribution.constraints[1].margin",
         lambda d: d["distribution"]["constraints"][1].update(margin=-math.inf)),
        ("distribution.margins.a", lambda d: d["distribution"]["margins"].update(a=math.nan)),
        ("distribution.weights[3]",
         lambda d: d.update(distribution={"weights": [0.125] * 3 + [math.nan] + [0.125] * 4})),
        ("baseline.delta", lambda d: d.update(baseline={"source_quotient": 0.95,
                                                        "delta": math.inf})),
        ("baseline.source_quotient", lambda d: d.update(baseline={"source_quotient": 10**400,
                                                                  "delta": 0.1})),
    ], ids=["const-inf", "margin-neg-inf", "margins-nan", "weight-nan", "baseline-inf",
            "baseline-huge-int"])
    def test_rejects_non_finite_number(self, tmp_path, capsys, field, edit):
        data = json.loads((corpus_dir() / "riemann_weil.json").read_text())
        edit(data)
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(data))
        message = f"field '{re.escape(field)}' must be a finite number"
        with pytest.raises(ScenarioFormatError, match=message):
            load_scenario(bad)
        assert main(["check", str(bad), "--json"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and re.search(message, err)

    @pytest.mark.parametrize("baseline, named", [
        ({"source_quotient": 0.95}, "missing ['delta']"),
        ({"source_quotient": 0.95, "delta": 0.1, "gamma": 0.2}, "unknown ['gamma']"),
    ], ids=["missing", "unknown"])
    def test_baseline_needs_exactly_its_keys(self, tmp_path, capsys, baseline, named):
        data = json.loads((corpus_dir() / "volume.json").read_text())
        data["baseline"] = baseline
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match=re.escape(named)):
            load_scenario(bad)
        assert main(["check", str(bad), "--json"]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""


class TestSchemaEvaluation:
    def test_riemann_weil_confirms(self):
        scenario = corpus_by_name()["riemann_weil"]
        dist, result = scenario.solve()
        assert result is not None and result.found
        report = evaluate_schema(scenario, dist)
        assert report.all_conditions_hold
        assert not report.degenerate
        assert report.schema_confirms is True
        assert report.overall is not None
        assert report.overall.confirms
        assert report.overall.degree >= 0.01

    def test_taylor_series_confirms(self):
        scenario = corpus_by_name()["taylor_series"]
        dist, result = scenario.solve()
        assert result.found
        report = evaluate_schema(scenario, dist)
        assert report.schema_confirms is True
        assert set(report.conditions) == {"e", "f", "g", "h"}

    def test_euler_contrast(self):
        by_name = corpus_by_name()
        cauchy = evaluate_schema(by_name["euler_cauchy"])
        assert cauchy.schema_confirms is True
        polya = evaluate_schema(by_name["euler_polya"])
        # the reversed likelihood condition fails, so the verdict is withheld
        assert not polya.conditions["n"].holds
        assert polya.schema_confirms is None
        assert polya.overall is not None
        assert polya.overall.degree <= 0.01

    def test_volume_contrast(self):
        by_name = corpus_by_name()
        strong = evaluate_schema(by_name["volume"])
        weak = evaluate_schema(by_name["volume_star"])
        assert strong.schema_confirms is True
        assert weak.schema_confirms is None
        assert strong.overall.confirms
        assert not weak.overall.confirms

    def test_degenerate_bridge_withholds_verdict(self):
        space = WorldSpace(("H", "E", "B"))
        scenario = Scenario(
            name="degenerate",
            space=space,
            schema="type1",
            roles={
                "hypothesis": Proposition.atom(space, "H"),
                "evidence": Proposition.atom(space, "E"),
                "bridge": Proposition.atom(space, "B"),
            },
            margins={},
            weights=tuple(
                JointDistribution.from_unnormalized(
                    space, (1.0 - space.atom_mask("B")).astype(float)
                ).weights
            ),
        )
        report = evaluate_schema(scenario)
        assert report.degenerate
        assert "bridge" in report.extremality_flags
        assert report.bridge_prior == 0.0
        assert report.schema_confirms is None

    def test_entailing_variant(self):
        path = corpus_dir() / "variants" / "riemann_weil_entailing.json"
        scenario = load_scenario(path)
        assert entails(scenario.roles["bridge"], scenario.roles["hypothesis"])
        dist, result = scenario.solve()
        assert result.found
        report = evaluate_schema(scenario, dist)
        # bridge entails hypothesis: the stability condition holds at equality
        assert report.conditions["c"].holds
        assert report.schema_confirms is True


def planted_extension(seed: int) -> tuple[JointDistribution, BridgeSpec]:
    """A conservative extension with a known witness, over 2-3 old atoms.

    A Dirichlet(0.5) joint over the extended space is the witness: the old
    distribution is its marginal, the prior its P(g), and 2-2*atoms
    cond_gt_cond constraints sit at 0.8-0.9 of their gap under it. Every
    conditioning event has probability >= 0.05 and every gap is >= 0.05.
    """
    rng = np.random.default_rng(seed)
    atoms = 2 + seed % 2
    old = WorldSpace(tuple(f"A{i}" for i in range(atoms)))
    new = extended_space(old, "g")
    n = old.world_count
    joint = rng.dirichlet(np.full(2 * n, 0.5))

    def prop() -> Proposition:
        while True:
            mask = rng.integers(0, 2, 2 * n).astype(bool)
            if 0 < mask.sum() < 2 * n:
                return Proposition(new, mask)

    constraints = []
    count = int(rng.integers(2, 2 * atoms + 1))
    while len(constraints) < count:
        t1, g1, t2, g2 = (prop() for _ in range(4))
        p1, p2 = joint @ g1.mask, joint @ g2.mask
        if min(p1, p2) < 0.05:
            continue
        gap = joint @ (t1.mask & g1.mask) / p1 - joint @ (t2.mask & g2.mask) / p2
        if abs(gap) < 0.05:
            continue
        lhs, rhs = Side(target=t1, given=g1), Side(target=t2, given=g2)
        if gap < 0:
            lhs, rhs, gap = rhs, lhs, -gap
        constraints.append(ProbConstraint(
            "cond_gt_cond", lhs, rhs, margin=float(rng.uniform(0.8, 0.9) * gap)))
    spec = BridgeSpec("g", prior=float(joint[n:].sum()),
                      likelihood_constraints=ConstraintSet(new, constraints),
                      seed=int(rng.integers(1, 2**31 - 1)))
    return JointDistribution(old, joint[:n] + joint[n:]), spec


class TestBridgeExtension:
    def test_conservative_preserves_old_marginals(self, xyz_space):
        rng = np.random.default_rng(3)
        dist = random_distribution(xyz_space, rng)
        ext = extend_with_bridge(dist, BridgeSpec(new_atom="g", prior=0.3))
        new_space = ext.space
        assert new_space.atoms == ("x", "y", "z", "g")
        g = Proposition.atom(new_space, "g")
        assert probability(ext, g) == pytest.approx(0.3, abs=1e-12)
        for name in xyz_space.atoms:
            old_p = probability(dist, Proposition.atom(xyz_space, name))
            new_p = probability(ext, Proposition.atom(new_space, name))
            assert new_p == pytest.approx(old_p, abs=1e-12)

    def test_unconstrained_bridge_is_irrelevant(self, xyz_space):
        # With no likelihood constraints the bridge is independent of the old
        # atoms, so conditioning on it changes nothing.
        rng = np.random.default_rng(5)
        dist = random_distribution(xyz_space, rng)
        ext = extend_with_bridge(dist, BridgeSpec(new_atom="g", prior=0.4))
        g = Proposition.atom(ext.space, "g")
        for name in xyz_space.atoms:
            p = Proposition.atom(ext.space, name)
            assert conditional(ext, p, g) == pytest.approx(probability(ext, p), abs=1e-12)
            verdict = confirm(ext, g, p)
            assert abs(verdict.degree) <= 1e-12

    def test_prior_zero_and_one(self, ab_space, ab_dist):
        low = extend_with_bridge(ab_dist, BridgeSpec(new_atom="g", prior=0.0))
        high = extend_with_bridge(ab_dist, BridgeSpec(new_atom="g", prior=1.0))
        g_low = Proposition.atom(low.space, "g")
        g_high = Proposition.atom(high.space, "g")
        assert probability(low, g_low) == 0.0
        assert probability(high, g_high) == 1.0

    def test_conservative_with_likelihood_constraints(self, ab_space, ab_dist):
        new_space = extended_space(ab_space, "g")
        g = Proposition.atom(new_space, "g")
        a = Proposition.atom(new_space, "a")
        cs = ConstraintSet(
            space=new_space,
            constraints=[
                ProbConstraint("cond_gt_cond", Side(target=a, given=g),
                               Side(target=a, given=~g), margin=0.05, label="link")
            ],
        )
        ext = extend_with_bridge(
            ab_dist,
            BridgeSpec(new_atom="g", prior=0.3, likelihood_constraints=cs),
        )
        assert probability(ext, g) == pytest.approx(0.3, abs=1e-12)
        assert conditional(ext, a, g) - conditional(ext, a, ~g) >= 0.05 - 1e-9
        # old joint marginals still exact
        old_a = Proposition.atom(ab_space, "a")
        old_b = Proposition.atom(ab_space, "b")
        assert probability(ext, a & Proposition.atom(new_space, "b")) == pytest.approx(
            probability(ab_dist, old_a & old_b), abs=1e-12
        )

    def test_revisionary_mode(self, ab_space, ab_dist):
        new_space = extended_space(ab_space, "g")
        g = Proposition.atom(new_space, "g")
        a = Proposition.atom(new_space, "a")
        cs = ConstraintSet(
            space=new_space,
            constraints=[
                ProbConstraint("cond_gt_prob", Side(target=a, given=g),
                               Side(target=a), margin=0.05, label="rel")
            ],
        )
        ext = extend_with_bridge(
            ab_dist,
            BridgeSpec(new_atom="g", prior=0.25, likelihood_constraints=cs,
                       mode="revisionary"),
        )
        assert probability(ext, g) == pytest.approx(0.25, abs=1e-12)
        assert conditional(ext, a, g) - probability(ext, a) >= 0.05 - 1e-9

    def test_revisionary_prior_is_exact(self, ab_space, ab_dist):
        new_space = extended_space(ab_space, "g")
        g = Proposition.atom(new_space, "g")
        a = Proposition.atom(new_space, "a")
        cs = ConstraintSet(new_space, [
            ProbConstraint("cond_gt_prob", Side(target=a, given=g), Side(target=a),
                           margin=0.05, label="rel"),
        ])
        for seed, prior in enumerate((0.1, 0.25, 0.5, 0.9)):
            ext = extend_with_bridge(ab_dist, BridgeSpec(
                new_atom="g", prior=prior, likelihood_constraints=cs,
                mode="revisionary", seed=seed))
            assert abs(exact_value(Side(target=g), ext.weights) - Fraction(prior)) <= 1e-15
            assert exact_satisfied(cs.constraints, ext.weights)

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_revisionary_extremal_prior_leaves_the_dead_block_zero(self, ab_space, ab_dist,
                                                                   prior):
        new_space = extended_space(ab_space, "g")
        a = Proposition.atom(new_space, "a")
        g = new_space.atom_mask("g")
        cs = ConstraintSet(new_space, [
            ProbConstraint("prob_gt", Side(target=a), Side(const=0.6), label="a"),
        ])
        ext = extend_with_bridge(ab_dist, BridgeSpec(
            new_atom="g", prior=prior, likelihood_constraints=cs, mode="revisionary"))
        dead = ~g if prior == 1.0 else g
        assert not ext.weights[dead].any()
        assert ext.weights[~dead].sum() == pytest.approx(1.0, abs=1e-15)
        assert exact_satisfied(cs.constraints, ext.weights)

    def test_revisionary_condition_on_the_dead_branch_is_not_found(self, ab_space, ab_dist):
        new_space = extended_space(ab_space, "g")
        g = Proposition.atom(new_space, "g")
        a = Proposition.atom(new_space, "a")
        cs = ConstraintSet(new_space, [
            ProbConstraint("cond_gt_prob", Side(target=a, given=g), Side(target=a),
                           margin=0.05, label="rel"),
        ])
        with pytest.raises(InfeasibleExtensionError) as err:
            extend_with_bridge(ab_dist, BridgeSpec(
                new_atom="g", prior=0.0, likelihood_constraints=cs, mode="revisionary"))
        assert err.value.penalty == 1.0  # UNDEFINED_PENALTY: P(a|g) is undefined
        assert not err.value.best.weights[g.mask].any()
        assert np.isfinite(err.value.best.weights).all()

    def test_planted_conservative_extensions_succeed(self):
        for seed in range(200):
            dist, spec = planted_extension(seed)
            ext = extend_with_bridge(dist, spec)
            assert is_satisfied(ext, spec.likelihood_constraints)
            n = dist.space.world_count
            np.testing.assert_allclose(ext.weights[:n] + ext.weights[n:], dist.weights,
                                       atol=1e-12)

    def test_conservative_failure_keeps_marginals_and_prior(self, ab_dist):
        new_space = extended_space(ab_dist.space, "g")
        g = Proposition.atom(new_space, "g")
        cs = ConstraintSet(new_space, [
            ProbConstraint("prob_gt", Side(target=g), Side(const=0.5), label="g"),
        ])
        with pytest.raises(InfeasibleExtensionError) as err:
            extend_with_bridge(ab_dist, BridgeSpec(new_atom="g", prior=0.3,
                                                   likelihood_constraints=cs))
        best = err.value.best
        n = ab_dist.space.world_count
        np.testing.assert_allclose(best.weights[:n] + best.weights[n:], ab_dist.weights,
                                   rtol=0, atol=1e-12)
        assert abs(exact_value(Side(target=g), best.weights) - Fraction(0.3)) <= 1e-15
        assert err.value.penalty == penalty(best, cs)

    def test_conservative_overflowing_penalty_is_infeasible(self, ab_dist):
        # Every penalty of P(g) > 1e200 overflows to inf, without a warning.
        new_space = extended_space(ab_dist.space, "g")
        g = Proposition.atom(new_space, "g")
        cs = ConstraintSet(new_space, [
            ProbConstraint("prob_gt", Side(target=g), Side(const=1e200))])
        with pytest.raises(InfeasibleExtensionError) as err:
            extend_with_bridge(ab_dist, BridgeSpec(new_atom="g", prior=0.3,
                                                   likelihood_constraints=cs))
        assert err.value.penalty == float("inf")

    def test_existing_atom_rejected(self, ab_dist):
        with pytest.raises(ValueError):
            extend_with_bridge(ab_dist, BridgeSpec(new_atom="a", prior=0.5))

    # A capped child's body: extend 11 atoms by g, in the mode sys.argv[1],
    # to a space of 4 096 worlds, one atom past the search bound.
    PAST_THE_BOUND = """
from analogybench import (BridgeSpec, ConstraintSet, JointDistribution, ProbConstraint,
                          Proposition, Side, WorldSpace, extend_with_bridge)
old = WorldSpace(tuple(f"a{i}" for i in range(11)))
new = WorldSpace(old.atoms + ("g",))
cs = ConstraintSet(new, [ProbConstraint("prob_gt", Side(target=Proposition.atom(new, "g")),
                                        Side(const=0.5))])
dist = JointDistribution.from_unnormalized(old, [1.0] * old.world_count)
try:
    extend_with_bridge(dist, BridgeSpec("g", 0.3, likelihood_constraints=cs, mode=sys.argv[1]))
except ValueError as exc:
    print(exc, file=sys.stderr)
    sys.exit(2)
"""

    @pytest.mark.parametrize("mode", ["conservative", "revisionary"])
    def test_space_past_the_search_bound_rejected(self, mode):
        child = run_capped(self.PAST_THE_BOUND, mode)
        assert child.returncode == 2, child.stderr
        assert "4096 worlds" in child.stderr and "64 MiB" in child.stderr

    def test_bad_prior_rejected(self):
        with pytest.raises(ValueError):
            BridgeSpec(new_atom="g", prior=1.5)

    def test_marginal_preservation_property(self, xyz_space):
        rng = np.random.default_rng(9)
        for trial in range(20):
            dist = random_distribution(xyz_space, rng)
            prior = float(rng.uniform(0.05, 0.95))
            ext = extend_with_bridge(dist, BridgeSpec(new_atom="g", prior=prior))
            # every old joint event keeps its probability exactly
            mask = rng.integers(0, 2, 8).astype(bool)
            old_prop = Proposition(xyz_space, mask)
            new_prop = Proposition(ext.space, np.concatenate([mask, mask]))
            assert probability(ext, new_prop) == pytest.approx(
                probability(dist, old_prop), abs=1e-12
            )


class TestRepairMarginal:
    @pytest.mark.parametrize("prior", [0.0, 0.3, 0.8, 1.0])
    def test_rows_match_vector_calls_and_meet_the_prior(self, prior):
        rng = np.random.default_rng(4)
        weights = rng.dirichlet(np.ones(8))
        weights[5] = 0.0
        weights /= weights.sum()
        block = rng.uniform(0.0, 1.0, (6, 8))
        block[0] = 0.0  # marginal 0
        block[1] = 1.0  # marginal 1 within rounding
        block[2] = np.where(weights == 0.0, 0.7, 0.0)  # marginal 0, t not all 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repaired = _repair_marginal(block, weights, prior)
            rows = [_repair_marginal(t, weights, prior) for t in block]
        for row, t in zip(repaired, rows):
            np.testing.assert_array_equal(row, t)
            assert abs(row @ weights - prior) <= 1e-15
            assert ((row >= 0.0) & (row <= 1.0)).all()


class TestBaselineAndArithmetic:
    def test_symmetry_baseline_values(self):
        assert symmetry_baseline(0.95, 0.1) == pytest.approx(0.85)
        assert symmetry_baseline(0.95, 0.0) == pytest.approx(0.95)
        assert symmetry_baseline(0.1, 0.1) == 0.0

    def test_symmetry_baseline_validation(self):
        with pytest.raises(ValueError):
            symmetry_baseline(1.2, 0.1)
        with pytest.raises(ValueError):
            symmetry_baseline(0.5, 0.6)

    def test_baseline_is_indiscriminate_across_volume_pair(self):
        # Same inputs, same output, regardless of the scenarios' structure.
        by_name = corpus_by_name()
        strong, weak = by_name["volume"], by_name["volume_star"]
        assert strong.baseline == weak.baseline
        q, d = strong.baseline["source_quotient"], strong.baseline["delta"]
        assert symmetry_baseline(q, d) == symmetry_baseline(
            weak.baseline["source_quotient"], weak.baseline["delta"]
        )

    def test_euler_characteristic_platonic_solids(self):
        for name, (v, e, f) in PLATONIC_SOLIDS.items():
            assert euler_characteristic(v, e, f) == 2, name

    def test_euler_characteristic_non_polyhedron(self):
        # a flat square complex: 4 vertices, 4 edges, 1 face
        assert euler_characteristic(4, 4, 1) == 1

    def test_euler_characteristic_validation(self):
        with pytest.raises(ValueError):
            euler_characteristic(-1, 0, 0)
