"""Workbench for Bayesian confirmation by analogy over finite probability spaces.

The public names below are imported from their modules on first use
(PEP 562), so `import analogybench` loads no numpy until a name that needs
it is read.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "JointDistribution", "Proposition", "SpaceMismatchError",
        "UndefinedConditionalError", "WorldSpace", "conditional", "entails",
        "is_non_extremal", "probability",
    ), "prob"),
    **dict.fromkeys((
        "ConfirmationVerdict", "TransitivityReport", "check_transitivity",
        "confirm", "fuzz_transitivity", "mine_naive_transitivity_counterexample",
    ), "confirmation"),
    **dict.fromkeys((
        "ConstraintSet", "ProbConstraint", "SearchConfig", "Side", "find_model",
        "grid_enumerate", "penalty", "sample_simplex",
    ), "finder"),
    **dict.fromkeys((
        "Scenario", "SchemaReport", "euler_characteristic", "evaluate_schema",
        "load_corpus", "load_scenario", "symmetry_baseline",
    ), "scenarios"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
