import argparse
import json
import shlex
from pathlib import Path

import pytest

from analogybench import cli, sweep
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


RIEMANN = str(corpus_dir() / "riemann_weil.json")
ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 parsers do."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def riemann_variant(tmp_path, name, edit):
    """riemann_weil written to tmp_path after edit(data) changed it."""
    data = json.loads(Path(RIEMANN).read_text())
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _overflowing_bound(data):
    data["distribution"]["constraints"][0]["rhs"]["const"] = 1e200


def _duplicate_label(data):
    data["distribution"]["constraints"][1]["label"] = "nonext_lo_R"


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
        # euler_polya with every evidence world zeroed: P(Estar) = 0, so the
        # conditions that condition on the evidence are inapplicable.
        scenario = json.loads((corpus_dir() / "euler_polya.json").read_text())
        weights = scenario["distribution"]["weights"]
        for world in (2, 3, 6, 7):  # Estar is bit 1
            weights[world] = 0.0
        total = sum(weights)
        scenario["distribution"]["weights"] = [w / total for w in weights]
        path = tmp_path / "no_evidence.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == EXIT_OK
        conditions = strict_json(out)["schema_report"]["conditions"]
        inapplicable = [c for c in conditions.values() if not c["applicable"]]
        assert len(inapplicable) == 2
        assert all(c["margin"] is None for c in inapplicable)

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

    def test_weights_scenario_rejected(self, capsys, tmp_path):
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps({
            "name": "fixed",
            "atoms": ["A", "B"],
            "schema": "type1",
            "roles": {"hypothesis": "A", "evidence": "B", "bridge": "A & B"},
            "distribution": {"weights": [0.25, 0.25, 0.25, 0.25]},
        }))
        code, out, err = run(capsys, "find-model", str(path))
        assert code == EXIT_VALIDATION


class TestFuzzTheorem:
    def test_small_run(self, capsys):
        code, out, err = run(
            capsys, "fuzz-theorem", "--samples", "2000", "--seed", "3", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["filtered"] > 0

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
        code, out, err = run(
            capsys, "counterexample", "--seed", "1", "--budget", "100000", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["confirmations"]["A_confirms_B"] > 0.01
        assert payload["confirmations"]["B_confirms_C"] > 0.01
        assert payload["confirmations"]["A_to_C_degree"] < -0.001
        assert payload["failing_conditions"]

    def test_not_found_within_budget(self, capsys):
        code, out, err = run(capsys, "counterexample", "--seed", "1", "--budget", "1")
        assert code == EXIT_NOT_FOUND

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


class TestSweep:
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
        assert float(first[-1]) == 0.0  # degenerate endpoint: degree exactly 0

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

    def test_unknown_param(self, capsys):
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "nonsense", "--range", "0:1:0.5",
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("param", ["P(R)", "P(nonsense)", "P(G |)", "P(G & W)"])
    def test_prior_of_anything_but_the_bridge_is_rejected(self, capsys, param):
        code, out, err = run(capsys, "sweep", RIEMANN, "--param", param, "--range", "0:1:0.5")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "P(G)" in err

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
        find_model = sweep.find_model

        def spy(cs, config):
            budgets.append(config.max_samples)
            return find_model(cs, config)

        monkeypatch.setattr(sweep, "find_model", spy)
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
