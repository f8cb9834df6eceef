"""Analogy schemas, the case-study corpus, and the symmetry-transfer baseline.

A scenario names three roles over one world space: a hypothesis about the
target domain, evidence from the source domain, and a bridge proposition
connecting the two. Both schema types share one shape of four probabilistic
conditions; they differ in what the evidence and bridge mean:

  type1 ("methods to results"): a result discovered in the source confirms
      the target conjecture via an antecedently suspected connection.
  type2 ("results to methods"): an observed similarity of results confirms
      the existence of a hidden common ground, and thereby the hypothesis.

With roles H (hypothesis), E (evidence), B (bridge), the conditions are:

  1. P(H|B)     >  P(H)        (bridge raises the hypothesis)
  2. P(E|B)     >  P(E|!B)     (bridge raises the evidence's likelihood)
  3. P(H|B&E)   >= P(H|B)      (evidence harmless given the bridge)
  4. P(H|!B&E)  >= P(H|!B)     (evidence harmless absent the bridge)

When all four hold and the bridge has non-extremal credence, the direct
Bayesian verdict P(H|E) > P(H) follows (see confirmation.check_transitivity
with x=E, y=B, z=H).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .confirmation import (
    ConditionResult,
    ConfirmationVerdict,
    check_transitivity,
    confirm,
    transitivity_constraints,
)
from .finder import (
    ALL_KINDS,
    ConstraintSet,
    FindModelResult,
    ProbConstraint,
    SearchConfig,
    Side,
    find_model,
)
from .prob import (
    InvalidDistributionError,
    JointDistribution,
    Proposition,
    UndefinedConditionalError,
    WorldSpace,
    is_non_extremal,
    probability,
)

SCHEMA_TYPES = ("type1", "type2")
DEFAULT_LABELS = {"type1": ("a", "b", "c", "d"), "type2": ("e", "f", "g", "h")}
ROLE_NAMES = ("hypothesis", "evidence", "bridge")


class ScenarioFormatError(ValueError):
    """Scenario file failed parsing or validation; message names file and field."""


@dataclass(frozen=True)
class Scenario:
    name: str
    space: WorldSpace
    schema: str  # "type1" | "type2"
    roles: dict[str, Proposition]
    margins: dict[str, float]  # condition label -> solver margin
    extra_constraints: tuple[ProbConstraint, ...] = ()
    weights: tuple[float, ...] | None = None
    seed: int = 1
    condition_labels: tuple[str, str, str, str] | None = None
    baseline: dict[str, float] | None = None
    notes: str = ""
    source_file: str | None = None

    def __post_init__(self):
        if self.schema not in SCHEMA_TYPES:
            raise ScenarioFormatError(f"{self.name}: unknown schema {self.schema!r}")
        missing = [r for r in ROLE_NAMES if r not in self.roles]
        if missing:
            raise ScenarioFormatError(f"{self.name}: missing roles {missing}")
        props = [self.roles[r] for r in ROLE_NAMES]
        for i in range(3):
            for j in range(i + 1, 3):
                if props[i] == props[j]:
                    raise ScenarioFormatError(
                        f"{self.name}: roles {ROLE_NAMES[i]} and {ROLE_NAMES[j]}"
                        " must be distinct propositions"
                    )
        where = self.source_file or self.name
        labels = self.condition_labels
        if labels is not None and not (
            isinstance(labels, tuple) and all(isinstance(x, str) for x in labels)
            and len(set(labels)) == len(labels) == 4
        ):
            raise ScenarioFormatError(f"{where}: 'condition_labels' needs 4 distinct strings")
        for key in self.margins:
            if key not in self.labels:
                raise ScenarioFormatError(
                    f"{where}: margin {key!r} is not a condition label {list(self.labels)}"
                )

    @property
    def labels(self) -> tuple[str, str, str, str]:
        return self.condition_labels or DEFAULT_LABELS[self.schema]

    def condition_constraints(self) -> list[ProbConstraint]:
        """Schema conditions enforced in the solve: those with a margin entry.

        They are transitivity conditions (i)-(iv) with x=E, y=B, z=H, each
        at its scenario margin under its scenario label.
        """
        conditions = transitivity_constraints(
            x=self.roles["evidence"], y=self.roles["bridge"], z=self.roles["hypothesis"]
        )
        return [
            replace(c, margin=self.margins[label], label=label)
            for label, c in zip(self.labels, conditions[:4]) if label in self.margins
        ]

    def constraint_set(self) -> ConstraintSet | None:
        """Full solver constraint set; None when the scenario carries weights."""
        if self.weights is not None:
            return None
        constraints = self.condition_constraints() + list(self.extra_constraints)
        return ConstraintSet(space=self.space, constraints=constraints)

    def solve(self, config: SearchConfig | None = None) -> tuple[JointDistribution, FindModelResult | None]:
        """Concrete distribution: stored weights, or a model-finder solve."""
        if self.weights is not None:
            return JointDistribution(self.space, np.array(self.weights)), None
        cs = self.constraint_set()
        cfg = config or SearchConfig(seed=self.seed)
        result = find_model(cs, cfg)
        return result.distribution, result


@dataclass(frozen=True)
class SchemaReport:
    scenario: str
    schema: str
    conditions: dict[str, ConditionResult]
    bridge_prior: float
    extremality_flags: tuple[str, ...]
    degenerate: bool
    schema_confirms: bool | None  # True, or None when withheld; never False
    overall: ConfirmationVerdict | None  # direct Bayesian recomputation


def evaluate_schema(scenario: Scenario, dist: JointDistribution) -> SchemaReport:
    """Evaluate the four schema conditions and the direct Bayesian verdict.

    The conditions are judged by check_transitivity with x=E, y=B, z=H:
    1-2 strict (> 0), 3-4 weak (>= within tolerance). The overall verdict
    is always recomputed directly from the distribution; the analogical
    (schema) verdict is claimed only when all four conditions hold and the
    bridge is non-extremal.
    """
    transitivity = check_transitivity(
        dist,
        x=scenario.roles["evidence"],
        y=scenario.roles["bridge"],
        z=scenario.roles["hypothesis"],
    )
    conditions = dict(zip(scenario.labels, transitivity.conditions.values()))

    flags = tuple(role for role in ROLE_NAMES if not is_non_extremal(dist, scenario.roles[role]))
    bridge_prior = probability(dist, scenario.roles["bridge"])
    degenerate = "bridge" in flags

    overall: ConfirmationVerdict | None
    try:
        overall = confirm(dist, scenario.roles["evidence"], scenario.roles["hypothesis"])
    except UndefinedConditionalError:
        overall = None

    # Withheld when the analogy channel is degenerate or some condition fails.
    schema_confirms = True if not degenerate and all(c.holds for c in conditions.values()) else None
    return SchemaReport(
        scenario=scenario.name,
        schema=scenario.schema,
        conditions=conditions,
        bridge_prior=bridge_prior,
        extremality_flags=flags,
        degenerate=degenerate,
        schema_confirms=schema_confirms,
        overall=overall,
    )


# ---------------------------------------------------------------------------
# Symmetry-transfer baseline and case-study arithmetic


def symmetry_baseline(source_quotient: float, delta: float) -> float:
    """Target betting quotient under pure symmetry transfer.

    A function of (source_quotient, delta) only: the baseline is blind to any
    structural feature of the target analogy, which is exactly the
    indiscriminateness the schema machinery is meant to expose.
    """
    if not 0.0 <= source_quotient <= 1.0:
        raise ValueError("source_quotient must lie in [0, 1]")
    if not 0.0 <= delta <= source_quotient:
        raise ValueError("delta must lie in [0, source_quotient]")
    return max(source_quotient - delta, 0.0)


def euler_characteristic(v: int, e: int, f: int) -> int:
    """Alternating element count V - E + F of a polyhedral complex."""
    for count in (v, e, f):
        if count < 0:
            raise ValueError("element counts must be nonnegative")
    return v - e + f


PLATONIC_SOLIDS = {
    "tetrahedron": (4, 6, 4),
    "cube": (8, 12, 6),
    "octahedron": (6, 12, 8),
    "dodecahedron": (20, 30, 12),
    "icosahedron": (12, 30, 20),
}


# ---------------------------------------------------------------------------
# Scenario files and the corpus


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an int", float: "a number"}


def _typed(value, kind, where: str, field: str):
    """kind(value) when value is a kind, else ScenarioFormatError naming field.

    float takes any finite JSON number: json reads NaN, Infinity and -Infinity,
    and an integer past the float range, all of which are refused here. A
    JSON true or false is no kind's value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ScenarioFormatError(f"{where}: field {field!r} must be {_TYPE_NAMES[kind]}")
    try:
        value = kind(value)
    except OverflowError:
        value = math.inf
    if kind is float and not math.isfinite(value):
        raise ScenarioFormatError(f"{where}: field {field!r} must be a finite number")
    return value


def _margin(value, where: str, field: str) -> float:
    """A solver margin: a finite number >= 0, else ScenarioFormatError naming field."""
    value = _typed(value, float, where, field)
    if value < 0:
        raise ScenarioFormatError(f"{where}: field {field!r} must be >= 0")
    return value


def _parse_formula(text, space: WorldSpace, where: str, field: str) -> Proposition:
    _typed(text, str, where, field)
    try:
        return Proposition.parse(space, text)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: field {field!r}: {exc}") from None


def _parse_side(data, space: WorldSpace, where: str, field: str) -> Side:
    _typed(data, dict, where, field)
    if ("const" in data) == ("target" in data) or "const" in data and "given" in data:
        raise ScenarioFormatError(
            f"{where}: field {field!r} needs 'const' alone, or 'target' and an optional 'given'")
    if "const" in data:
        return Side(const=_typed(data["const"], float, where, f"{field}.const"))
    target = _parse_formula(data["target"], space, where, f"{field}.target")
    given = data.get("given")
    if given in (None, ""):
        return Side(target=target)
    return Side(target=target, given=_parse_formula(given, space, where, f"{field}.given"))


def _parse_constraint(data, space: WorldSpace, where: str, field: str) -> ProbConstraint:
    # A missing kind, lhs or rhs reads as null and is refused by its type.
    _typed(data, dict, where, field)
    kind = _typed(data.get("kind"), str, where, f"{field}.kind")
    if kind not in ALL_KINDS:
        raise ScenarioFormatError(
            f"{where}: field '{field}.kind' must be one of {sorted(ALL_KINDS)}, not {kind!r}"
        )
    return ProbConstraint(
        kind=kind,
        lhs=_parse_side(data.get("lhs"), space, where, f"{field}.lhs"),
        rhs=_parse_side(data.get("rhs"), space, where, f"{field}.rhs"),
        margin=_margin(data.get("margin", 0.0), where, f"{field}.margin"),
        label=_typed(data.get("label", ""), str, where, f"{field}.label") or None,
    )


def scenario_from_dict(data: dict, source_file: str | None = None) -> Scenario:
    """A validated Scenario; a missing or wrongly typed field raises
    ScenarioFormatError naming the field."""
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{source_file or '<scenario>'}: a scenario must be an object")
    where = source_file or str(data.get("name", "<scenario>"))

    def require(key, kind):
        if key not in data:
            raise ScenarioFormatError(f"{where}: missing field {key!r}")
        return _typed(data[key], kind, where, key)

    name = require("name", str)
    atoms = [_typed(a, str, where, f"atoms[{i}]") for i, a in enumerate(require("atoms", list))]
    try:
        space = WorldSpace(tuple(atoms))
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: field 'atoms': {exc}") from None

    schema = require("schema", str)
    roles_data = require("roles", dict)
    roles = {}
    for role in ROLE_NAMES:
        if role not in roles_data:
            raise ScenarioFormatError(f"{where}: field 'roles' missing {role!r}")
        roles[role] = _parse_formula(roles_data[role], space, where, f"roles.{role}")

    # Solver keys beside weights are refused, so a weights scenario reads
    # every one of them at its default.
    dist_data = require("distribution", dict)
    weights = dist_data.get("weights")
    if "weights" in dist_data:
        for key in ("margins", "constraints", "seed"):
            if key in dist_data:
                raise ScenarioFormatError(
                    f"{where}: field 'distribution.{key}' is not allowed with weights"
                )
        weights = _typed(dist_data["weights"], list, where, "distribution.weights")
        weights = tuple(_typed(x, float, where, f"distribution.weights[{i}]")
                        for i, x in enumerate(weights))
        try:
            JointDistribution(space, weights)
        except InvalidDistributionError as exc:
            raise ScenarioFormatError(f"{where}: field 'distribution.weights': {exc}") from None
    margins = _typed(dist_data.get("margins", {}), dict, where, "distribution.margins")
    margins = {k: _margin(v, where, f"distribution.margins.{k}")
               for k, v in margins.items()}
    constraints = _typed(dist_data.get("constraints", []), list, where,
                         "distribution.constraints")
    constraints = [_parse_constraint(c, space, where, f"distribution.constraints[{i}]")
                   for i, c in enumerate(constraints)]
    seed = _typed(dist_data.get("seed", 1), int, where, "distribution.seed")
    if seed < 0:
        raise ScenarioFormatError(f"{where}: field 'distribution.seed' must be >= 0")
    if weights is None and not margins and not constraints:
        raise ScenarioFormatError(
            f"{where}: field 'distribution' needs weights, margins, or constraints"
        )

    labels = data.get("condition_labels")
    baseline = data.get("baseline")
    if baseline is not None:
        baseline = {k: _typed(v, float, where, f"baseline.{k}")
                    for k, v in _typed(baseline, dict, where, "baseline").items()}
        # The keys are symmetry_baseline's arguments.
        keys = ("source_quotient", "delta")
        missing = [k for k in keys if k not in baseline]
        unknown = [k for k in baseline if k not in keys]
        if missing or unknown:
            raise ScenarioFormatError(f"{where}: field 'baseline' needs exactly {list(keys)}"
                                      f" (missing {missing}, unknown {unknown})")
        # symmetry_baseline's ranges, refused here by field.
        quotient, delta = baseline["source_quotient"], baseline["delta"]
        if not 0.0 <= quotient <= 1.0:
            raise ScenarioFormatError(
                f"{where}: field 'baseline.source_quotient' must lie in [0, 1]")
        if not 0.0 <= delta <= quotient:
            raise ScenarioFormatError(
                f"{where}: field 'baseline.delta' must lie in [0, source_quotient]")

    return Scenario(
        name=name,
        space=space,
        schema=schema,
        roles=roles,
        margins=margins,
        extra_constraints=tuple(constraints),
        weights=weights,
        seed=seed,
        condition_labels=tuple(labels) if isinstance(labels, list) else labels,
        baseline=baseline,
        notes=_typed(data.get("notes", ""), str, where, "notes"),
        source_file=source_file,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FileNotFoundError(f"cannot read scenario file {path}: {exc}") from exc
    # Not UTF-8, an integer past the digit limit, or nesting past the
    # recursion limit, as well as malformed JSON.
    except (ValueError, RecursionError) as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from None
    return scenario_from_dict(data, source_file=str(path))


def corpus_dir() -> Path:
    return Path(resources.files(__package__) / "corpus")


def load_corpus() -> list[Scenario]:
    """Parse and validate the bundled case-study scenarios, sorted by name."""
    directory = corpus_dir()
    scenarios = [load_scenario(p) for p in sorted(directory.glob("*.json"))]
    if not scenarios:
        raise FileNotFoundError(f"no corpus scenarios found in {directory}")
    return scenarios
