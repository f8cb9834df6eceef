import importlib
import inspect
import json
import subprocess
import sys
import types

import pytest

import analogybench
from analogybench.scenarios import corpus_dir

from conftest import child_env

#: The public names, by the module that defines each.
PUBLIC = {
    "prob": ("JointDistribution", "Proposition", "SpaceMismatchError",
             "UndefinedConditionalError", "WorldSpace", "conditional", "entails",
             "is_non_extremal", "probability"),
    "confirmation": ("ConfirmationVerdict", "TransitivityReport", "check_transitivity",
                     "confirm", "fuzz_transitivity", "mine_naive_transitivity_counterexample"),
    "finder": ("ConstraintSet", "ProbConstraint", "SearchConfig", "Side", "find_model",
               "grid_enumerate", "penalty", "sample_simplex"),
    "scenarios": ("Scenario", "SchemaReport", "euler_characteristic", "evaluate_schema",
                  "load_corpus", "load_scenario", "symmetry_baseline"),
}

#: The parameters of each public callable (an exception class has none to read)
#: and of finder.coordinate_descent, the one descent; "=" marks a default. A
#: new option is added here on purpose, never by accident.
PARAMETERS = {
    "ConfirmationVerdict": ("confirms", "degree", "measures="),
    "ConstraintSet": ("space", "constraints"),
    "JointDistribution": ("space", "weights"),
    "ProbConstraint": ("kind", "lhs", "rhs", "margin=", "label="),
    "Proposition": ("space", "mask", "text="),
    "Scenario": ("name", "space", "schema", "roles", "margins", "extra_constraints=",
                 "weights=", "seed=", "condition_labels=", "baseline=", "notes=",
                 "source_file="),
    "SchemaReport": ("scenario", "schema", "conditions", "bridge_prior",
                     "extremality_flags", "degenerate", "schema_confirms", "overall"),
    "SearchConfig": ("seed=", "max_samples="),
    "Side": ("const=", "target=", "given="),
    "TransitivityReport": ("conditions", "conclusion"),
    "WorldSpace": ("atoms",),
    "check_transitivity": ("dist", "x", "y", "z", "margin="),
    "conditional": ("dist", "a", "given"),
    "confirm": ("dist", "evidence", "hypothesis"),
    "entails": ("a", "b"),
    "euler_characteristic": ("v", "e", "f"),
    "evaluate_schema": ("scenario", "dist"),
    "find_model": ("cs", "config"),
    "fuzz_transitivity": ("samples", "seed", "margin"),
    "grid_enumerate": ("cs", "resolution"),
    "is_non_extremal": ("dist", "a"),
    "load_corpus": (),
    "load_scenario": ("path",),
    "mine_naive_transitivity_counterexample": ("seed", "budget"),
    "penalty": ("dist", "cs"),
    "probability": ("dist", "a"),
    "sample_simplex": ("space", "seed"),
    "symmetry_baseline": ("source_quotient", "delta"),
    "coordinate_descent": ("x", "objective", "pin"),
}

# Run in a fresh interpreter, since this one has imported every module: import
# the package, then run the CLI as `python -m analogybench.cli` does for each
# argv, and report after each step whether numpy has been loaded.
START_UP = """
import contextlib, io, json, runpy, sys
import analogybench
steps = [("import analogybench", None, "numpy" in sys.modules,
          sorted(set(analogybench.__all__) - set(dir(analogybench))))]
for argv in (["--version"], ["--help"], ["no-such-command"]):
    sys.argv = ["analogybench", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("analogybench.cli", run_name="__main__")
            code = None
        except SystemExit as exc:
            code = exc.code
    steps.append((" ".join(argv), code, "numpy" in sys.modules, []))
print(json.dumps(steps))
"""

# Run `check` on the scenario file argv[1] as `python -m analogybench.cli`
# does, then report its exit code and which of numpy, fractions and decimal
# it loaded.
CHECK_MODULES = """
import contextlib, io, json, runpy, sys
sys.argv = ["analogybench", "check", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("analogybench.cli", run_name="__main__")
        code = None
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted({"numpy", "fractions", "decimal"} & set(sys.modules))]))
"""


class TestNamespace:
    def test_all_is_the_public_names(self):
        assert sorted(analogybench.__all__) == sorted(n for names in PUBLIC.values()
                                                      for n in names)
        assert len(analogybench.__all__) == 30

    def test_each_name_is_its_modules_object(self):
        for module, names in PUBLIC.items():
            defining = importlib.import_module(f"analogybench.{module}")
            for name in names:
                assert getattr(analogybench, name) is getattr(defining, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from analogybench import *", namespace)
        for name in analogybench.__all__:
            assert namespace[name] is getattr(analogybench, name)

    def test_parameters_are_the_option_inventory(self):
        from analogybench.finder import coordinate_descent

        callables = {name: getattr(analogybench, name) for name in analogybench.__all__}
        callables = {name: obj for name, obj in callables.items()
                     if not (isinstance(obj, type) and issubclass(obj, Exception))}
        callables["coordinate_descent"] = coordinate_descent
        got = {
            name: tuple(p.name + ("=" if p.default is not p.empty else "")
                        for p in inspect.signature(obj).parameters.values())
            for name, obj in callables.items()
        }
        assert got == PARAMETERS

    def test_dir_lists_the_public_names(self):
        assert set(analogybench.__all__) <= set(dir(analogybench))
        assert "__version__" in dir(analogybench)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            analogybench.no_such_name
        assert not hasattr(analogybench, "no_such_name")

    def test_submodule_import_returns_the_module(self):
        from analogybench import sweep
        assert isinstance(sweep, types.ModuleType)
        assert sweep is sys.modules["analogybench.sweep"]


class TestStartUp:
    def test_version_help_and_usage_errors_load_no_numpy(self):
        run = subprocess.run([sys.executable, "-c", START_UP], capture_output=True,
                             text=True, env=child_env(), timeout=60)
        assert run.returncode == 0, run.stderr
        steps = json.loads(run.stdout)
        assert steps == [
            ["import analogybench", None, False, []],
            ["--version", 0, False, []],
            ["--help", 0, False, []],
            ["no-such-command", 2, False, []],
        ]

    def test_check_loads_neither_fractions_nor_decimal(self):
        # Only the exact grid computes with Fraction, and no command runs it.
        path = str(corpus_dir() / "riemann_weil.json")
        run = subprocess.run([sys.executable, "-c", CHECK_MODULES, path], capture_output=True,
                             text=True, env=child_env(), timeout=60)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [0, ["numpy"]]
