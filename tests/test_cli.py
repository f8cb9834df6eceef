import json

import pytest

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        report = payload["schema_report"]
        assert report["schema_confirms"] is True
        assert set(report["conditions"]) == {"a", "b", "c", "d"}
        assert report["overall"]["degree"] >= 0.01

    def test_json_reproducible(self, capsys):
        _, first, _ = run(capsys, "check", RIEMANN, "--json", "--seed", "1")
        _, second, _ = run(capsys, "check", RIEMANN, "--json", "--seed", "1")
        assert first == second

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


class TestFindModel:
    def test_json_success(self, capsys):
        code, out, err = run(capsys, "find-model", RIEMANN, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["penalty"] <= 1e-12
        assert len(payload["distribution"]["weights"]) == 8

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

    def test_bad_range(self, capsys):
        code, out, err = run(
            capsys, "sweep", RIEMANN, "--param", "margins.a", "--range", "0-1-2",
        )
        assert code == EXIT_VALIDATION
