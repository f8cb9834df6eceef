import json
import math
import re

import pytest

from analogybench import (
    JointDistribution,
    Proposition,
    Scenario,
    WorldSpace,
    entails,
    euler_characteristic,
    evaluate_schema,
    load_corpus,
    load_scenario,
    symmetry_baseline,
)
from analogybench.cli import EXIT_VALIDATION, main
from analogybench.scenarios import (
    PLATONIC_SOLIDS,
    ScenarioFormatError,
    corpus_dir,
)


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


def solved_report(scenario):
    """evaluate_schema on the scenario's own solve."""
    return evaluate_schema(scenario, scenario.solve()[0])


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
        ("distribution.constraints[0].rhs",
         lambda d: d["distribution"]["constraints"][0]["rhs"].update(target="W")),
        ("distribution.constraints[0].rhs",
         lambda d: d["distribution"]["constraints"][0]["rhs"].update(given="G")),
    ], ids=["bridge-int", "target-list", "distribution-string", "margins-list", "margin-null",
            "constraints-object", "constraint-string", "weight-null", "seed-float", "seed-bool",
            "seed-negative", "weights-sum", "weights-negative",
            "label-list", "notes-int", "baseline-string", "baseline-value-string",
            "baseline-quotient-above-1", "baseline-quotient-negative",
            "baseline-delta-above-quotient", "baseline-delta-negative",
            "margins-negative", "margin-negative", "kind-unknown", "const-with-target",
            "const-with-given"])
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
        assert all(c.holds for c in report.conditions.values())
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
        cauchy = solved_report(by_name["euler_cauchy"])
        assert cauchy.schema_confirms is True
        polya = solved_report(by_name["euler_polya"])
        # the reversed likelihood condition fails, so the verdict is withheld
        assert not polya.conditions["n"].holds
        assert polya.schema_confirms is None
        assert polya.overall is not None
        assert polya.overall.degree <= 0.01

    def test_volume_contrast(self):
        by_name = corpus_by_name()
        strong = solved_report(by_name["volume"])
        weak = solved_report(by_name["volume_star"])
        assert strong.schema_confirms is True
        assert weak.schema_confirms is None
        assert strong.overall.confirms
        assert not weak.overall.confirms

    def test_conditions_are_keyed_by_the_scenario_labels(self):
        for scenario in load_corpus():
            assert list(solved_report(scenario).conditions) == list(scenario.labels)

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
        report = solved_report(scenario)
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
