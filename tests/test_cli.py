import argparse
import gc
import json
import math
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from analogybench import (
    JointDistribution,
    Proposition,
    UndefinedConditionalError,
    WorldSpace,
    check_transitivity,
    cli,
    conditional,
    confirmation,
    probability,
    scenarios,
)
from analogybench.finder import SearchConfig
from analogybench.cli import (
    CSV_HEADER_COMMENT,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from analogybench.scenarios import corpus_dir

from conftest import DEEP_FORMULAS, ROOT, RUN_CLI, child_env, run_capped


RIEMANN = str(corpus_dir() / "riemann_weil.json")


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 parsers do."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_and_report(capsys, *argv):
    """The lines argv prints as a table, and the report it prints with --json."""
    code, table, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--json")
    assert code == json_code == EXIT_OK
    return table.splitlines(), strict_json(out)


def riemann_variant(tmp_path, name, edit):
    """riemann_weil written to tmp_path after edit(data) changed it."""
    data = json.loads(Path(RIEMANN).read_text())
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def no_evidence_scenario(tmp_path):
    """euler_polya with every evidence world zeroed, written to tmp_path:
    P(Estar) = 0, so the conditions that condition on the evidence are
    inapplicable."""
    scenario = json.loads((corpus_dir() / "euler_polya.json").read_text())
    weights = scenario["distribution"]["weights"]
    for world in (2, 3, 6, 7):  # Estar is bit 1
        weights[world] = 0.0
    total = sum(weights)
    scenario["distribution"]["weights"] = [w / total for w in weights]
    path = tmp_path / "no_evidence.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def _overflowing_bound(data):
    data["distribution"]["constraints"][0]["rhs"]["const"] = 1e200


def _duplicate_label(data):
    data["distribution"]["constraints"][1]["label"] = "nonext_lo_R"


def _euler_polya_weights_doubled(data):
    data.clear()
    data.update(json.loads((corpus_dir() / "euler_polya.json").read_text()))
    data["distribution"]["weights"] = [2 * w for w in data["distribution"]["weights"]]


class TestCheck:
    def test_margin_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", RIEMANN, "--margin", "0.9"])
        assert exc.value.code == 2  # argparse usage error
        assert "--margin" in capsys.readouterr().err

    def test_table_output(self, capsys):
        code, out, err = run(capsys, "check", RIEMANN)
        assert code == EXIT_OK
        assert "riemann_weil" in out
        assert "condition a" in out
        assert "analogical verdict" in out
        # timing only ever goes to stderr, keeping stdout reproducible
        assert "elapsed" not in out

    def test_table_withholds_the_verdict_when_a_condition_fails(self, capsys):
        code, out, _ = run(capsys, "check", str(corpus_dir() / "euler_polya.json"))
        assert code == EXIT_OK
        assert "  analogical verdict: withheld\n" in out

    def test_json_output(self, capsys):
        code, out, err = run(capsys, "check", RIEMANN, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["command"] == "check"
        assert payload["solver"]["found"] is True
        assert payload["solver"]["restarts_refined"] >= 1
        report = payload["schema_report"]
        assert report["schema_confirms"] is True
        assert set(report["conditions"]) == {"a", "b", "c", "d"}
        assert report["overall"]["degree"] >= 0.01
        assert set(report["overall"]["measures"]) == {"difference", "ratio", "log_likelihood"}

    def test_json_reproducible(self, capsys):
        _, first, _ = run(capsys, "check", RIEMANN, "--json", "--seed", "1")
        _, second, _ = run(capsys, "check", RIEMANN, "--json", "--seed", "1")
        assert first == second

    @pytest.mark.parametrize("seed", [[], ["--seed", "7"]])
    def test_fixed_weights_report_no_seed(self, capsys, seed):
        # euler_polya carries its weights: no solve runs, so no seed is used.
        path = str(corpus_dir() / "euler_polya.json")
        code, out, _ = run(capsys, "check", path, "--json", *seed)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["solver"] is None
        assert payload["config"]["seed"] is None

    def test_undefined_margins_are_null(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check", no_evidence_scenario(tmp_path), "--json")
        assert code == EXIT_OK
        conditions = strict_json(out)["schema_report"]["conditions"]
        inapplicable = [c for c in conditions.values() if not c["applicable"]]
        assert len(inapplicable) == 2
        assert all(c["margin"] is None for c in inapplicable)

    # check reads conditions (i)-(iv) from the compiled kernel's rows with
    # correctly rounded sums. Each reported margin, x=E, y=B, z=H, is
    # recomputed from the reported weights with prob.conditional and
    # prob.probability: the same float, and null exactly where the value is
    # undefined (the last case, whose evidence has no mass).
    @pytest.mark.parametrize("path", [*sorted(corpus_dir().rglob("*.json")), None],
                             ids=lambda path: path.name if path else "no_evidence")
    def test_reported_margins_are_the_scalar_reference(self, capsys, tmp_path, path):
        inapplicable = 0 if path else 2
        path = str(path or no_evidence_scenario(tmp_path))
        scenario = scenarios.load_scenario(path)
        code, out, _ = run(capsys, "check", path, "--json", "--seed", "1")
        assert code == EXIT_OK
        report = strict_json(out)
        dist = JointDistribution(scenario.space, report["distribution"]["weights"])
        x, y, z = (scenario.roles[r] for r in ("evidence", "bridge", "hypothesis"))

        def value(target, given=None):
            return probability(dist, target) if given is None else conditional(dist, target, given)

        conditions = (lambda: value(z, y) - value(z),
                      lambda: value(x, y) - value(x, ~y),
                      lambda: value(z, x & y) - value(z, y),
                      lambda: value(z, x & ~y) - value(z, ~y))
        undefined = []
        for label, condition in zip(scenario.labels, conditions):
            try:
                expected = condition()
            except UndefinedConditionalError:
                expected = None
                undefined.append(label)
            got = report["schema_report"]["conditions"][label]["margin"]
            assert repr(got) == repr(expected), label
        assert len(undefined) == inapplicable

    def test_solved_scenario_reports_its_seed(self, capsys):
        for argv, expected in ([RIEMANN], 1), ([RIEMANN, "--seed", "7"], 7):
            _, out, _ = run(capsys, "check", *argv, "--json")
            assert json.loads(out)["config"]["seed"] == expected

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == EXIT_IO
        assert "error" in err

    def test_invalid_scenario(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "atoms": ["A", "B", "C"],
            "schema": "type1",
            "roles": {"hypothesis": "A", "evidence": "Qq", "bridge": "B"},
            "distribution": {"margins": {"a": 0.05}},
        }))
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "check", str(path))
        assert code == EXIT_VALIDATION

    def test_duplicate_condition_labels(self, capsys, tmp_path):
        data = json.loads(Path(RIEMANN).read_text())
        data["condition_labels"] = ["a", "a", "c", "d"]
        path = tmp_path / "duplicate_labels.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "condition_labels" in err

    def test_overflowing_penalty_is_budget_exhaustion(self, capsys, tmp_path):
        # P(R) > 1e200: every squared hinge overflows to inf.
        path = riemann_variant(tmp_path, "overflow", _overflowing_bound)
        code, out, err = run(capsys, "check", path, "--json")
        assert code == EXIT_INFEASIBLE
        assert out == "" and "infeasible within budget" in err
        code, out, _ = run(capsys, "find-model", path, "--json")
        assert code == EXIT_INFEASIBLE
        payload = strict_json(out)
        assert payload["found"] is False
        assert payload["penalty"] is None  # inf
        assert payload["samples_used"] == SearchConfig().max_samples

    def test_duplicate_constraint_label(self, capsys, tmp_path):
        path = riemann_variant(tmp_path, "duplicate", _duplicate_label)
        for command in ("check", "find-model"):
            code, out, err = run(capsys, command, path, "--json")
            assert code == EXIT_VALIDATION
            assert out == "" and "duplicate constraint name 'nonext_lo_R'" in err

    @pytest.mark.parametrize("field,edit", [
        ("distribution.constraints[0].rhs.const",
         lambda d: d["distribution"]["constraints"][0]["rhs"].update(const=math.inf)),
        ("distribution.constraints[0].margin",
         lambda d: d["distribution"]["constraints"][0].update(margin=-0.1)),
        ("distribution.seed", lambda d: d["distribution"].update(seed=-1)),
        ("distribution.weights", _euler_polya_weights_doubled),
        ("field 'atoms'", lambda d: d["atoms"].append("é")),
    ], ids=["infinite-bound", "negative-margin", "negative-seed", "doubled-weights",
            "atom-no-formula-can-name"])
    def test_bad_field_is_refused_by_name(self, capsys, tmp_path, field, edit):
        path = riemann_variant(tmp_path, "bad_field", edit)
        code, out, err = run(capsys, "check", path, "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("text", DEEP_FORMULAS.values(), ids=DEEP_FORMULAS)
    def test_deep_formula_is_refused_by_name(self, capsys, tmp_path, text):
        data = json.loads((corpus_dir() / "volume.json").read_text())
        data["roles"]["hypothesis"] = text
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "roles.hypothesis" in err and "deeper than 100 levels" in err
        # sweep reads its P(...) parameter with the same parser
        code, out, err = run(capsys, "sweep", RIEMANN, "--param", f"P({text})",
                             "--range", "0:1:0.5")
        assert code == EXIT_VALIDATION
        assert out == "" and "sweeps only its bridge prior" in err

    @pytest.mark.parametrize("content", [
        b"[" * 100_000,
        b'{"name": "\xff"}',
        b'{"seed": ' + b"9" * 5_000 + b"}",
    ], ids=["nested-past-the-recursion-limit", "not-utf8", "integer-past-the-digit-limit"])
    @pytest.mark.parametrize("command", [
        ["check", "--json"],
        ["sweep", "--param", "P(G)", "--range", "0:1:0.5"],
    ], ids=["check", "sweep"])
    def test_undecodable_file_is_refused_by_path(self, capsys, tmp_path, content, command):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert f"{path}: invalid JSON" in err
        assert "Traceback" not in err

    def test_space_past_the_search_bound_is_refused(self, tmp_path):
        # volume with 9 unused atoms: 4 096 worlds, one atom past the bound.
        # A guard that regressed would allocate GiBs of descent moves, so
        # check runs in a capped child.
        data = json.loads((corpus_dir() / "volume.json").read_text())
        data["atoms"] += [f"X{i}" for i in range(9)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        child = run_capped(RUN_CLI, "check", str(path), "--json")
        assert child.returncode == EXIT_VALIDATION, child.stderr
        assert child.stdout == ""
        assert "4096 worlds" in child.stderr and "64 MiB (2048 worlds)" in child.stderr
        assert "Traceback" not in child.stderr

    def test_margin_for_unknown_label(self, capsys, tmp_path):
        data = json.loads((corpus_dir() / "volume.json").read_text())
        margins = data["distribution"]["margins"]
        margins["A_typo"] = margins.pop("a")
        path = tmp_path / "volume_typo.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "A_typo" in err

    def test_baseline_out_of_range(self, capsys, tmp_path):
        data = json.loads((corpus_dir() / "volume.json").read_text())
        data["baseline"]["delta"] = data["baseline"]["source_quotient"] + 0.01
        path = tmp_path / "volume_delta.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "field 'baseline.delta' must lie in [0, source_quotient]" in err

    def test_solver_keys_beside_weights(self, capsys, tmp_path):
        data = json.loads((corpus_dir() / "euler_polya.json").read_text())
        data["distribution"]["margins"] = {"A_typo": 0.5}
        path = tmp_path / "euler_polya_extra.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "distribution.margins" in err


class TestFindModel:
    def test_json_success(self, capsys):
        code, out, err = run(capsys, "find-model", RIEMANN, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["penalty"] <= 1e-12
        assert payload["restarts_refined"] >= 1
        assert len(payload["distribution"]["weights"]) == 8

    def test_json_reproducible(self, capsys):
        _, first, _ = run(capsys, "find-model", RIEMANN, "--json", "--seed", "7")
        _, second, _ = run(capsys, "find-model", RIEMANN, "--json", "--seed", "7")
        assert first == second

    def test_table_prints_the_json_values(self, capsys):
        lines, report = table_and_report(capsys, "find-model", RIEMANN, "--seed", "3")
        weights = report["distribution"]["weights"]
        assert lines[0] == (f"found: {report['found']} (penalty {report['penalty']:.3e}, "
                            f"{report['samples_used']} samples)")
        assert [line.split()[-1] for line in lines[1:1 + len(weights)]] == [
            f"{w:.6f}" for w in weights]
        achieved = dict(line.strip().split(": achieved ") for line in lines[1 + len(weights):])
        assert achieved == {label: f"{margin:+.4f}"
                            for label, margin in report["achieved_margins"].items()}

    def test_infeasible_constraints(self, capsys, tmp_path):
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps({
            "name": "impossible",
            "atoms": ["A", "B", "C"],
            "schema": "type1",
            "roles": {"hypothesis": "A", "evidence": "B", "bridge": "C"},
            "distribution": {
                "constraints": [
                    {"kind": "prob_gt", "lhs": {"target": "A"}, "rhs": {"const": 0.9}},
                    {"kind": "prob_lt", "lhs": {"target": "A"}, "rhs": {"const": 0.1}},
                ],
                "seed": 1,
            },
        }))
        code, out, err = run(capsys, "find-model", str(path))
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("field,value", [
        ("margin", float("nan")), ("margin", float("inf")), ("const", float("nan")),
    ])
    def test_non_finite_number_is_a_validation_error(self, capsys, tmp_path, field, value):
        constraint = {"kind": "equality", "lhs": {"target": "A"}, "rhs": {"const": 0.5}}
        if field == "margin":
            constraint["margin"] = value
        else:
            constraint["rhs"]["const"] = value
        path = tmp_path / "nonfinite.json"
        # json writes NaN and Infinity literals, which the scenario loader accepts
        path.write_text(json.dumps({
            "name": "nonfinite",
            "atoms": ["A", "B", "C"],
            "schema": "type1",
            "roles": {"hypothesis": "A", "evidence": "B", "bridge": "C"},
            "distribution": {"constraints": [constraint], "seed": 1},
        }))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        code, out, err = run(capsys, "find-model", str(path))
        assert code == EXIT_VALIDATION
        assert "finite" in err

    def test_weights_scenario_rejected(self, capsys):
        code, out, err = run(capsys, "find-model", str(corpus_dir() / "euler_polya.json"))
        assert (code, out, err) == (
            EXIT_VALIDATION, "", "error: scenario carries explicit weights; nothing to solve\n")


class TestFuzzTheorem:
    def test_small_run(self, capsys):
        code, out, err = run(
            capsys, "fuzz-theorem", "--samples", "2000", "--seed", "3", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["filtered"] > 0

    def test_known_answer_at_the_default_flags(self, capsys):
        # No conclusion fails among the filtered rows, and every re-checked
        # row holds by the correctly rounded sums.
        code, out, _ = run(capsys, "fuzz-theorem", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"] == {"samples": 100_000, "seed": 1, "margin": 1e-6}
        assert payload["violations"] == 0
        assert payload["reverified"] == min(payload["filtered"], 500)

    def test_table_prints_the_json_values(self, capsys):
        # 1 536 filtered rows, so reverified stops at its cap of 500
        lines, report = table_and_report(capsys, "fuzz-theorem", "--samples", "20000",
                                         "--seed", "3")
        assert lines == [
            f"samples: {report['config']['samples']}",
            f"antecedent-satisfying: {report['filtered']}",
            f"conclusion violations: {report['violations']}",
            f"scalar re-verified: {report['reverified']}",
            f"min conclusion margin: {report['min_conclusion_margin']:.6f}",
        ]

    def test_no_filtered_row_prints_strict_json(self, capsys):
        code, out, _ = run(capsys, "fuzz-theorem", "--samples", "5", "--json")
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["filtered"] == 0
        assert payload["min_conclusion_margin"] is None

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, capsys, samples):
        code, out, err = run(capsys, "fuzz-theorem", "--samples", samples, "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "samples must be >= 1" in err


class TestCounterexample:
    def test_found_and_verified(self, capsys):
        code, out, err = run(capsys, "counterexample", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"] == {"seed": 1, "budget": 100_000}
        assert payload["verified"] is True
        assert payload["confirmations"]["A_confirms_B"] > 0.01
        assert payload["confirmations"]["B_confirms_C"] > 0.01
        assert payload["confirmations"]["A_to_C_degree"] < -0.001
        assert payload["failing_conditions"]
        # listed by check_transitivity's labels, in order
        space = WorldSpace(tuple(payload["distribution"]["atoms"]))
        dist = JointDistribution(space, payload["distribution"]["weights"])
        x, y, z = (Proposition.atom(space, name) for name in space.atoms)
        report = check_transitivity(dist, x, y, z)
        assert payload["failing_conditions"] == [
            label for label, c in report.conditions.items() if not c.holds]

    def test_table_prints_the_json_values(self, capsys):
        lines, report = table_and_report(capsys, "counterexample", "--seed", "1")
        weights = report["distribution"]["weights"]
        degrees = report["confirmations"]
        assert lines[0] == f"counterexample found after {report['samples_used']} samples"
        assert [line.split()[-1] for line in lines[1:1 + len(weights)]] == [
            f"{w:.6f}" for w in weights]
        assert lines[1 + len(weights):] == [
            f"  P(B|A) - P(B) = {degrees['A_confirms_B']:+.4f}",
            f"  P(C|B) - P(C) = {degrees['B_confirms_C']:+.4f}",
            f"  P(C|A) - P(C) = {degrees['A_to_C_degree']:+.4f}",
            f"  failing transitivity conditions: {', '.join(report['failing_conditions'])}",
        ]

    def test_not_found_within_budget(self, capsys, monkeypatch):
        # P(B|A) - P(B) <= 1, so no distribution holds the chain at margin 1
        # and the solve runs out its budget.
        monkeypatch.setattr(confirmation, "MINER_CONFIRM_MARGIN", 1.0)
        code, out, err = run(capsys, "counterexample", "--seed", "1", "--budget", "2000")
        assert code == EXIT_NOT_FOUND
        assert out == ""
        assert "no counterexample found within budget 2000" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, capsys, budget):
        code, out, err = run(capsys, "counterexample", "--budget", budget, "--json")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "budget must be >= 1" in err

    def test_output_scenario_round_trip(self, capsys, tmp_path):
        target = tmp_path / "mined.json"
        code, _, _ = run(
            capsys, "counterexample", "--seed", "1", "--budget", "100000",
            "--output", str(target),
        )
        assert code == EXIT_OK
        # the emitted file is itself a valid scenario for `check`; since the
        # mined distribution breaks transitivity, the analogical verdict must
        # be withheld there
        code, out, err = run(capsys, "check", str(target), "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_report"]["schema_confirms"] is None

    def test_unwritable_output_is_an_io_error(self, capsys, tmp_path):
        # The report goes to stdout before the file is written; main reports
        # the failed write as it reports every I/O error.
        target = tmp_path / "missing" / "mined.json"
        code, out, err = run(capsys, "counterexample", "--seed", "1", "--output", str(target))
        assert code == EXIT_IO
        assert out.startswith("counterexample found after")
        assert err.startswith("error: ") and str(target) in err


# A capped child's body: the CLI on its argv, with find_model refusing to
# solve a row.
NO_SOLVE_CLI = """
def no_solve(*args):
    raise AssertionError("a row was solved")

scenarios.find_model = no_solve
""" + RUN_CLI


def _pin_w(data):
    data["distribution"]["constraints"].append(
        {"kind": "equality", "lhs": {"target": "W"}, "rhs": {"const": 0.5}})


class TestSweep:
    def test_bridge_prior_outside_the_unit_interval_refused(self):
        child = run_capped(NO_SOLVE_CLI, "sweep", RIEMANN, "--param", "P(G)",
                           "--range=-0.5:1.5:0.5")
        assert child.returncode == EXIT_VALIDATION, child.stderr
        assert (child.stdout, child.stderr) == (
            "", "error: a bridge prior must lie in [0, 1], got -0.5\n")

    def test_own_marginal_equality_refused(self, capsys, tmp_path):
        # find-model solves this scenario, but find_model would meet its
        # P(W) = 0.5 in place of the sweep's pin, so no row could be ok.
        path = riemann_variant(tmp_path, "pinned_w", _pin_w)
        assert run(capsys, "find-model", path)[0] == EXIT_OK
        child = run_capped(NO_SOLVE_CLI, "sweep", path, "--param", "P(G)",
                           "--range", "0.2:0.8:0.2")
        assert child.returncode == EXIT_VALIDATION, child.stderr
        assert child.stdout == ""
        assert child.stderr.startswith("error: constraint 'c11' is an exact marginal equality")

    def test_bridge_prior_sweep_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "P(G)",
            "--range", "0:1:0.25", "--output", str(target),
        )
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER_COMMENT
        assert lines[1].split(",") == [
            "value", "status", "margin_a", "margin_b", "margin_c", "margin_d",
            "overall_degree",
        ]
        assert len(lines) == 7  # header comment + column row + 5 values
        first = lines[2].split(",")
        assert first[0] == "0.0"
        assert first[1] == "ok"
        # Degenerate endpoint: a-c condition on the dead branch, and d reads
        # P(H|E) - P(H), the direct degree.
        assert first[2:5] == ["", "", ""]
        assert abs(float(first[5]) - float(first[6])) <= 1e-12

    def test_unwritable_output_is_an_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "sweep.csv"
        code, out, err = run(capsys, "sweep", RIEMANN, "--param", "P(G)",
                             "--range", "0:1:0.5", "--output", str(target))
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("error: ") and str(target) in err

    def test_margin_sweep_to_stdout(self, capsys):
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "margins.a", "--range", "0.02:0.06:0.02",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER_COMMENT
        assert len(lines) == 5
        for line in lines[2:]:
            assert line.split(",")[1] == "ok"

    def test_degenerate_range_single_row(self, capsys):
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "margins.a", "--range", "0.05:0.05:1",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("param", ["P(Bstar)", "margins.a"])
    def test_fixed_weights_scenario_is_refused(self, capsys, param):
        code, out, err = run(capsys, "sweep", str(corpus_dir() / "euler_polya.json"),
                             "--param", param, "--range", "0:1:0.5")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "fixed weights" in err

    def test_unknown_margin_label_is_refused(self, capsys):
        code, out, err = run(capsys, "sweep", RIEMANN, "--param", "margins.z",
                             "--range", "0:0.1:0.05")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "'z'" in err

    def test_bridge_prior_needs_an_atom_bridge(self, capsys):
        path = str(corpus_dir() / "variants" / "riemann_weil_entailing.json")
        code, out, err = run(capsys, "sweep", path, "--param", "P(G & R)", "--range", "0:1:0.5")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "single atom" in err

    def test_non_positive_step_rejected(self, capsys):
        code, out, err = run(capsys, "sweep", RIEMANN, "--param", "margins.a",
                             "--range", "0:1:0")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "positive" in err

    def test_unknown_param(self, capsys):
        code, out, err = run(capsys, "sweep", RIEMANN, "--param", "bogus", "--range", "0:1:0.5")
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: unsupported sweep parameter "
                                    "'bogus'; use P(<bridge-atom>) or margins.<label>\n")

    @pytest.mark.parametrize("param", ["P(R)", "P(nonsense)", "P(G |)", "P(G & W)"])
    def test_prior_of_anything_but_the_bridge_is_rejected(self, capsys, param):
        code, out, err = run(capsys, "sweep", RIEMANN, "--param", param, "--range", "0:1:0.5")
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: riemann_weil sweeps only its "
                                    f"bridge prior P(G), not {param!r}\n")

    def test_any_formula_for_the_bridge_is_accepted(self, capsys):
        _, expected, _ = run(capsys, "sweep", RIEMANN, "--param", "P(G)", "--range", "0:1:0.5")
        code, out, _ = run(capsys, "sweep", RIEMANN, "--param", "P(G & (G | W))",
                           "--range", "0:1:0.5")
        assert code == EXIT_OK
        assert out == expected

    @pytest.mark.parametrize("param,grid", [("P(G)", "0.9:0.95:0.05"),
                                            ("margins.a", "0.05:0.06:0.01")])
    def test_seed_keeps_the_default_budget(self, capsys, monkeypatch, param, grid):
        budgets = []
        find_model = scenarios.find_model

        def spy(cs, config):
            budgets.append(config.max_samples)
            return find_model(cs, config)

        monkeypatch.setattr(scenarios, "find_model", spy)
        code, _, _ = run(capsys, "sweep", RIEMANN, "--param", param, "--range", grid,
                         "--seed", "3")
        assert code == EXIT_OK
        assert budgets == [20_000, 20_000]

    def test_reversed_range_rejected(self, capsys):
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "margins.a", "--range", "0.9:0.1:0.1",
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "reversed" in err

    def test_bad_range(self, capsys):
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "margins.a", "--range", "0-1-2",
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("grid", ["0.2:1:nan", "0.2:nan:0.1", "0:inf:0.1", "-inf:1:0.1"])
    def test_non_finite_range_rejected(self, capsys, grid):
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "margins.a", f"--range={grid}",
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("grid", ["1:2:1e-17", "0:1:1e-9"])
    def test_grid_past_the_row_bound_rejected(self, grid):
        # A row bound that regressed would grow the list of values until
        # memory ran out, so the sweep runs in a capped child.
        child = run_capped(NO_SOLVE_CLI, "sweep", RIEMANN, "--param", "P(G)", "--range", grid)
        assert child.returncode == EXIT_VALIDATION, child.stderr
        assert child.stdout == ""
        assert "more than 10000 rows" in child.stderr
        assert "Traceback" not in child.stderr


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["check", RIEMANN],
        ["find-model", RIEMANN],
        ["sweep", RIEMANN, "--param", "margins.a", "--range", "0:0.1:0.05"],
        ["fuzz-theorem", "--samples", "5"],
        ["counterexample", "--budget", "5"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2  # argparse usage error
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --seed" in err

    @pytest.mark.parametrize("command", ["check", "find-model"])
    @pytest.mark.parametrize("seed,expected", [([], 2), (["--seed", "5"], 5)])
    def test_json_reports_the_seed_that_ran(self, capsys, command, seed, expected):
        # volume.json carries distribution.seed 2
        path = str(corpus_dir() / "volume.json")
        code, out, _ = run(capsys, command, path, "--json", *seed)
        assert code == EXIT_OK
        assert json.loads(out)["config"]["seed"] == expected

    def test_seed_replaces_the_files_seed(self, capsys, tmp_path):
        """--seed 3 prints what the file prints with its distribution.seed at 3."""
        path = tmp_path / "riemann_weil.json"
        data = json.loads(Path(RIEMANN).read_text())
        commands = (["check", str(path), "--json"],
                    ["sweep", str(path), "--param", "P(G)", "--range", "0:1:0.25"])
        path.write_text(json.dumps(data))
        seeded = [run(capsys, *argv, "--seed", "3")[:2] for argv in commands]
        data["distribution"]["seed"] = 3
        path.write_text(json.dumps(data))
        assert [run(capsys, *argv)[:2] for argv in commands] == seeded


def _add_contradiction(data):
    data["distribution"]["constraints"] += [
        {"kind": "prob_gt", "lhs": {"target": "R"}, "rhs": {"const": 0.9}, "label": "above"},
        {"kind": "prob_lt", "lhs": {"target": "R"}, "rhs": {"const": 0.1}, "label": "below"},
    ]


#: Stands for riemann_weil with P(R) > 0.9 and P(R) < 0.1 added, written to
#: the test's directory: find-model runs out its budget, screening each block
#: after its first refine.
EXHAUSTED = "<riemann_weil with a contradiction>"


class TestSameSeedAcrossProcesses:
    # The in-process tests cannot vary the hash seed, so set or dict order
    # that leaked into a report, or into the constraints an exhausted search
    # screens, would pass them; each command runs in two processes.
    @pytest.mark.parametrize("argv, expected", [
        (["check", RIEMANN, "--json", "--seed", "3"], EXIT_OK),
        (["sweep", RIEMANN, "--param", "P(G)", "--range", "0:1:0.25", "--seed", "3"], EXIT_OK),
        (["sweep", RIEMANN, "--param", "margins.a", "--range", "0:0.1:0.05", "--seed", "3"],
         EXIT_OK),
        (["find-model", RIEMANN, "--json", "--seed", "3"], EXIT_OK),
        (["counterexample", "--json", "--seed", "3"], EXIT_OK),
        (["fuzz-theorem", "--json", "--samples", "20000", "--seed", "3"], EXIT_OK),
        (["find-model", EXHAUSTED, "--json", "--seed", "3"], EXIT_INFEASIBLE),
    ], ids=["check", "sweep-prior", "sweep-margin", "find-model", "counterexample",
            "fuzz-theorem", "find-model-exhausted"])
    def test_same_stdout_under_two_hash_seeds(self, tmp_path, argv, expected):
        if EXHAUSTED in argv:
            exhausted = riemann_variant(tmp_path, "exhausted", _add_contradiction)
            argv = [exhausted if a == EXHAUSTED else a for a in argv]
        env = child_env()
        outputs = []
        for hash_seed in ("1", "2"):
            child = subprocess.run([sys.executable, "-m", "analogybench.cli", *argv],
                                   capture_output=True, timeout=120,
                                   env={**env, "PYTHONHASHSEED": hash_seed})
            assert child.returncode == expected, child.stderr
            outputs.append(child.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


class TestCollector:
    # A CLI process runs with the cyclic collector off (cli.run), which is
    # sound only while a command leaves a fixed number of cycles, whatever
    # its size. Each command runs at two sizes with the collector off; a
    # loop that built cycles per iteration would leave more at the larger.
    @pytest.mark.parametrize("small, large, budgets", [
        (["fuzz-theorem", "--samples", "1000"], ["fuzz-theorem", "--samples", "20000"], None),
        (["sweep", RIEMANN, "--param", "P(G)", "--range", "0:1:0.5"],
         ["sweep", RIEMANN, "--param", "P(G)", "--range", "0:0.29:0.01"], None),
        # find_model's first refine finds a model at either budget.
        (["counterexample", "--budget", "1000"], ["counterexample", "--budget", "100000"], None),
        (["find-model", EXHAUSTED], ["find-model", EXHAUSTED], (10_000, 100_000)),
    ], ids=["fuzz-theorem", "sweep", "counterexample", "find-model-exhausted"])
    def test_uncollected_cycles_do_not_grow_with_size(self, capsys, monkeypatch, tmp_path,
                                                      small, large, budgets):
        exhausted = riemann_variant(tmp_path, "exhausted", _add_contradiction)
        small, large = ([exhausted if a == EXHAUSTED else a for a in argv]
                        for argv in (small, large))
        small_budget, large_budget = budgets or (None, None)
        find_model = scenarios.find_model

        def cycles(argv, budget):
            with monkeypatch.context() as patch:
                if budget is not None:
                    patch.setattr(scenarios, "find_model", lambda cs, config: find_model(
                        cs, replace(config, max_samples=budget)))
                code = main(argv)
            capsys.readouterr()
            assert code in (EXIT_OK, EXIT_INFEASIBLE)
            return gc.collect()

        gc.disable()
        try:
            gc.collect()
            cycles(small, small_budget)  # the first run may fill caches
            assert cycles(small, small_budget) == cycles(large, large_budget)
        finally:
            gc.enable()


class TestProcessEntry:
    @pytest.mark.parametrize("argv, expected", [
        (["check", RIEMANN, "--json", "--seed", "3"], EXIT_OK),
        (["check", RIEMANN, "--seed", "-1"], EXIT_VALIDATION),
        (["sweep", RIEMANN, "--param", "P(W)", "--range", "0:1:0.5"], EXIT_VALIDATION),
        (["find-model", EXHAUSTED, "--json"], EXIT_INFEASIBLE),
        (["check", "does-not-exist.json"], EXIT_IO),
    ], ids=["ok", "usage", "validation", "infeasible", "io"])
    def test_child_matches_in_process_main(self, capsys, tmp_path, argv, expected):
        """A `python -m analogybench.cli` child exits and prints as main(argv) does,
        and main leaves the collector on and nothing frozen."""
        exhausted = riemann_variant(tmp_path, "exhausted", _add_contradiction)
        argv = [exhausted if a == EXHAUSTED else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out = capsys.readouterr().out
        assert gc.isenabled() and gc.get_freeze_count() == 0
        child = subprocess.run([sys.executable, "-m", "analogybench.cli", *argv],
                               capture_output=True, text=True, timeout=120, env=child_env())
        assert code == expected
        assert (child.returncode, child.stdout) == (code, out)

    def test_closed_stdout_is_an_io_error(self):
        """A reader that closes stdout early gets one error line and exit 5,
        whether stdout is buffered or not (PYTHONUNBUFFERED)."""
        for unbuffered in (False, True):
            env = child_env()
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            child = subprocess.Popen(
                [sys.executable, "-m", "analogybench.cli", "sweep", RIEMANN, "--param", "P(G)",
                 "--range", "0:1:0.0005"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
            try:
                assert child.stdout.readline() == CSV_HEADER_COMMENT + "\n"
                child.stdout.close()
                err = child.stderr.read()
                code = child.wait(timeout=120)
            finally:
                child.kill()
                child.wait()
            assert (code, err) == (EXIT_IO, "error: [Errno 32] Broken pipe\n"), unbuffered


def readme_cli_examples() -> list[list[str]]:
    """The `analogybench ...` commands of the README's CLI section, as argv lists."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c)[1:] for c in commands if c.startswith("analogybench ")]


class TestReadmeExamples:
    def test_every_subcommand_has_an_example(self):
        assert {argv[0] for argv in readme_cli_examples()} == {
            "check", "find-model", "fuzz-theorem", "counterexample", "sweep"}

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_example_exits_0(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        argv = [str(ROOT / a) if a.startswith("src/") else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, err


class TestModuleDocstring:
    def test_usage_line_names_every_option(self):
        """Each command's line in the module docstring names each of its options."""
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        lines = {line.split()[0]: line for line in cli.__doc__.splitlines()
                 if line.startswith("  ")}
        assert set(lines) == set(commands)
        for name, subparser in commands.items():
            words = lines[name].replace("[", " ").replace("]", " ").split()
            for action in subparser._actions:
                if action.dest != "help":
                    for option in action.option_strings:
                        assert option in words, (name, option)
