"""Command-line front end.

Commands:
  check <file> [--json] [--seed N]                           evaluate a scenario file
  find-model <file> [--json] [--seed N]                      solve a scenario's constraints
  fuzz-theorem --samples N --seed N --margin X [--json]      fuzz the transitivity theorem
  counterexample --seed N --budget N [--json] [--output F]   mine a naive-transitivity failure
  sweep <file> --param P(<bridge>)|margins.<label> --range lo:hi:step [--seed N] [--output F]

Exit codes: 0 completed, 2 validation/parse error, 3 infeasible constraints,
4 counterexample not found, 5 I/O error, 1 unexpected error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

# Each command imports the modules it computes with, so --version, --help and
# usage errors answer before numpy loads.
from . import __version__

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_FOUND = 4
EXIT_IO = 5

REPORT_VERSION = 1
CSV_HEADER_COMMENT = "# analogybench sweep csv v1"


def _finite_or_null(value):
    """The report with every non-finite float (an undefined margin) as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _print_json(report: dict) -> None:
    """Print strict JSON: non-finite floats become null, and any left over raise."""
    print(json.dumps(_finite_or_null(report), sort_keys=True, allow_nan=False))


def _distribution_dict(dist) -> dict:
    return {"atoms": list(dist.space.atoms), "weights": dist.weights.tolist()}


def _print_worlds(dist, width: int) -> None:
    """One line per world: its atoms, negated where false, and its weight."""
    for world, weight in enumerate(dist.weights):
        desc = dist.space.world_description(world)
        bits = " ".join(f"{'' if v else '!'}{a}" for a, v in desc.items())
        print(f"  {bits:{width}s} {weight:.6f}")


def _fmt_margin(value: float) -> str:
    return "   n/a" if math.isnan(value) else f"{value:+.4f}"


def _print_schema_table(report) -> None:
    print(f"scenario: {report.scenario} ({report.schema})")
    print(f"bridge prior: {report.bridge_prior:.4f}")
    if report.degenerate:
        print("analogy channel degenerate: bridge credence is extremal")
    for label, cond in report.conditions.items():
        state = "holds" if cond.holds else ("inapplicable" if not cond.applicable else "fails")
        print(f"  condition {label}: margin {_fmt_margin(cond.margin)}  {state}")
    if report.overall is not None:
        verdict = "confirms" if report.overall.confirms else "does not confirm"
        print(f"  direct verdict: evidence {verdict} hypothesis "
              f"(degree {report.overall.degree:+.4f})")
    if report.schema_confirms is True:
        print("  analogical verdict: confirmation licensed by all four conditions")
    else:
        print("  analogical verdict: withheld")


def _solver_dict(result) -> dict:
    """A find_model result's report keys: check's `solver` block, find-model's top level."""
    return {
        "found": result.found,
        "penalty": result.penalty,
        "samples_used": result.samples_used,
        "restarts_refined": result.restarts_refined,
        "achieved_margins": result.achieved_margins,
    }


def _load_scenario(args):
    """The scenario file of args, with --seed, when given, in place of its seed."""
    from dataclasses import replace

    from .scenarios import load_scenario

    scenario = load_scenario(args.scenario)
    return scenario if args.seed is None else replace(scenario, seed=args.seed)


def cmd_check(args) -> int:
    from dataclasses import asdict

    from .scenarios import evaluate_schema

    scenario = _load_scenario(args)
    started = time.perf_counter()
    dist, result = scenario.solve()
    if result is not None and not result.found:
        print(
            f"error: constraints of {scenario.name} infeasible within budget "
            f"(best penalty {result.penalty:.3e})",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    report = evaluate_schema(scenario, dist)
    elapsed = time.perf_counter() - started
    if args.json:
        _print_json(
            {
                "version": REPORT_VERSION,
                "command": "check",
                "config": {
                    "scenario_file": args.scenario,
                    "seed": None if result is None else scenario.seed,
                    "margins": scenario.margins,
                },
                "solver": None if result is None else _solver_dict(result),
                "distribution": _distribution_dict(dist),
                "schema_report": asdict(report),
            }
        )
    else:
        _print_schema_table(report)
        print(f"  elapsed: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_find_model(args) -> int:
    scenario = _load_scenario(args)
    if scenario.weights is not None:
        raise ValueError("scenario carries explicit weights; nothing to solve")
    dist, result = scenario.solve()
    if args.json:
        _print_json({
            "version": REPORT_VERSION,
            "command": "find-model",
            "config": {"scenario_file": args.scenario, "seed": scenario.seed},
            **_solver_dict(result),
            "distribution": _distribution_dict(dist),
        })
    else:
        print(f"found: {result.found} (penalty {result.penalty:.3e}, "
              f"{result.samples_used} samples)")
        _print_worlds(dist, 30)
        for label, margin in result.achieved_margins.items():
            print(f"  {label}: achieved {_fmt_margin(margin)}")
    return EXIT_OK if result.found else EXIT_INFEASIBLE


def cmd_fuzz_theorem(args) -> int:
    from .confirmation import fuzz_transitivity

    report = fuzz_transitivity(args.samples, args.seed, args.margin)
    payload = {
        "version": REPORT_VERSION,
        "command": "fuzz-theorem",
        "config": {"samples": args.samples, "seed": args.seed, "margin": args.margin},
        "filtered": report.filtered,
        "violations": report.violations,
        "reverified": report.reverified,
        "min_conclusion_margin": report.min_conclusion_margin,
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"samples: {report.samples}")
        print(f"antecedent-satisfying: {report.filtered}")
        print(f"conclusion violations: {report.violations}")
        print(f"scalar re-verified: {report.reverified}")
        if report.filtered:
            print(f"min conclusion margin: {report.min_conclusion_margin:.6f}")
    return EXIT_OK


def _counterexample_scenario_dict(ce) -> dict:
    return {
        "name": "mined_counterexample",
        "atoms": list(ce.distribution.space.atoms),
        "schema": "type1",
        "roles": {"hypothesis": "C", "evidence": "A", "bridge": "B"},
        "distribution": {"weights": ce.distribution.weights.tolist()},
        "notes": "Machine-mined distribution over which A confirms B and B confirms C "
                 "while A disconfirms C; the schema conditions mirror the transitivity "
                 "conditions, so at least one must fail here.",
    }


def cmd_counterexample(args) -> int:
    from .confirmation import check_transitivity, confirm, mine_naive_transitivity_counterexample

    ce = mine_naive_transitivity_counterexample(args.seed, args.budget)
    if ce is None:
        print(
            f"no counterexample found within budget {args.budget}; try a larger --budget",
            file=sys.stderr,
        )
        return EXIT_NOT_FOUND
    d = ce.distribution
    first, second, final = (confirm(d, e, h).degree
                            for e, h in ((ce.x, ce.y), (ce.y, ce.z), (ce.x, ce.z)))
    trans = check_transitivity(d, ce.x, ce.y, ce.z)
    failing = [k for k, c in trans.conditions.items() if not c.holds]
    if args.json:
        _print_json({
            "version": REPORT_VERSION,
            "command": "counterexample",
            "config": {"seed": args.seed, "budget": args.budget},
            "samples_used": ce.samples_used,
            "distribution": _distribution_dict(d),
            "confirmations": {
                "A_confirms_B": first,
                "B_confirms_C": second,
                "A_to_C_degree": final,
            },
            "failing_conditions": failing,
            "verified": ce.verify(),
        })
    else:
        print(f"counterexample found after {ce.samples_used} samples")
        _print_worlds(d, 12)
        print(f"  P(B|A) - P(B) = {first:+.4f}")
        print(f"  P(C|B) - P(C) = {second:+.4f}")
        print(f"  P(C|A) - P(C) = {final:+.4f}")
        print(f"  failing transitivity conditions: {', '.join(failing)}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(_counterexample_scenario_dict(ce), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _parse_range(text: str) -> list[float]:
    from .sweep import sweep_values

    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    return sweep_values(lo, hi, step)


def _denotes(space, text: str, prop) -> bool:
    """Whether formula text, parsed over space, denotes the proposition."""
    from .formula import FormulaError
    from .prob import Proposition

    try:
        return Proposition.parse(space, text) == prop
    except FormulaError:
        return False


def cmd_sweep(args) -> int:
    from .sweep import sweep_bridge_prior, sweep_condition_margin

    scenario = _load_scenario(args)
    values = _parse_range(args.range)
    if args.param.startswith("P(") and args.param.endswith(")"):
        bridge = scenario.roles["bridge"]
        if not _denotes(scenario.space, args.param[2:-1], bridge):
            raise ValueError(f"{scenario.name} sweeps only its bridge prior "
                             f"P({bridge.text}), not {args.param!r}")
        rows = sweep_bridge_prior(scenario, values)
    elif args.param.startswith("margins."):
        label = args.param.split(".", 1)[1]
        rows = sweep_condition_margin(scenario, label, values)
    else:
        raise ValueError(f"unsupported sweep parameter {args.param!r}; "
                         "use P(<bridge-atom>) or margins.<label>")
    labels = scenario.labels
    lines = [CSV_HEADER_COMMENT]
    lines.append(
        ",".join(["value", "status"] + [f"margin_{l}" for l in labels] + ["overall_degree"])
    )
    for row in rows:
        cells = [repr(row.value), row.status]
        for label in labels:
            m = row.condition_margins.get(label, float("nan"))
            cells.append("" if math.isnan(m) else repr(m))
        cells.append("" if row.degree is None else repr(row.degree))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _seed(text: str) -> int:
    """An argparse type: a seed is an int >= 0, as numpy's generators require."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analogybench",
        description="Workbench for Bayesian confirmation by analogy over finite "
                    "probability spaces",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a scenario file")
    p.add_argument("scenario")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("find-model", help="solve a scenario's constraint set")
    p.add_argument("scenario")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_find_model)

    p = sub.add_parser("fuzz-theorem", help="fuzz the transitivity theorem")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--margin", type=float, default=1e-6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz_theorem)

    p = sub.add_parser("counterexample", help="mine a naive-transitivity failure")
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None,
                   help="write the counterexample as a scenario JSON file")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("sweep", help="sweep a parameter and emit CSV")
    p.add_argument("scenario")
    p.add_argument("--param", required=True, help="P(<bridge-atom>) or margins.<label>")
    p.add_argument("--range", required=True, help="lo:hi:step")
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
