"""Analogy schemas, the case-study corpus, bridge extension, and the
symmetry-transfer baseline.

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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .confirmation import (
    ConditionResult,
    ConfirmationVerdict,
    check_transitivity,
    confirm,
    transitivity_sides,
)
from .finder import (
    CompiledConstraints,
    ConstraintSet,
    FindModelResult,
    ProbConstraint,
    SearchConfig,
    Side,
    coordinate_descent,
    find_model,
    is_satisfied,
    penalty as _penalty,
)
from .prob import (
    DEFAULT_EXTREMALITY_EPS,
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

    @property
    def labels(self) -> tuple[str, str, str, str]:
        return self.condition_labels or DEFAULT_LABELS[self.schema]

    def condition_sides(self) -> list[tuple[str, str, Side, Side]]:
        """The four schema conditions as (label, kind, lhs, rhs).

        They are transitivity conditions (i)-(iv) with x=E, y=B, z=H.
        """
        sides = transitivity_sides(
            x=self.roles["evidence"], y=self.roles["bridge"], z=self.roles["hypothesis"]
        )
        return [(label, *side) for label, side in zip(self.labels, sides[:4])]

    def condition_constraints(self) -> list[ProbConstraint]:
        """Schema conditions enforced in the solve: those with a margin entry."""
        out = []
        for label, kind, lhs, rhs in self.condition_sides():
            if label in self.margins:
                out.append(
                    ProbConstraint(kind=kind, lhs=lhs, rhs=rhs,
                                   margin=self.margins[label], label=label)
                )
        return out

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
    schema_confirms: bool | None  # None = analogical verdict withheld
    overall: ConfirmationVerdict | None  # direct Bayesian recomputation

    @property
    def all_conditions_hold(self) -> bool:
        return all(c.holds for c in self.conditions.values())


def evaluate_schema(
    scenario: Scenario,
    dist: JointDistribution | None = None,
    eps: float = DEFAULT_EXTREMALITY_EPS,
) -> SchemaReport:
    """Evaluate the four schema conditions and the direct Bayesian verdict.

    The conditions are judged by check_transitivity with x=E, y=B, z=H:
    1-2 strict (> 0), 3-4 weak (>= within tolerance). The overall verdict
    is always recomputed directly from the distribution; the analogical
    (schema) verdict is claimed only when all four conditions hold and the
    bridge is non-extremal.
    """
    if dist is None:
        dist, _ = scenario.solve()
    transitivity = check_transitivity(
        dist,
        x=scenario.roles["evidence"],
        y=scenario.roles["bridge"],
        z=scenario.roles["hypothesis"],
    )
    conditions = dict(zip(scenario.labels, transitivity.conditions.values()))

    flags = []
    for role in ROLE_NAMES:
        if not is_non_extremal(dist, scenario.roles[role], eps):
            flags.append(role)
    bridge_prior = probability(dist, scenario.roles["bridge"])
    degenerate = "bridge" in flags

    overall: ConfirmationVerdict | None
    try:
        overall = confirm(dist, scenario.roles["evidence"], scenario.roles["hypothesis"])
    except UndefinedConditionalError:
        overall = None

    if degenerate:
        schema_confirms = None  # analogy channel degenerate
    elif all(c.holds for c in conditions.values()):
        schema_confirms = True
    else:
        schema_confirms = None  # some condition fails: verdict withheld
    return SchemaReport(
        scenario=scenario.name,
        schema=scenario.schema,
        conditions=conditions,
        bridge_prior=bridge_prior,
        extremality_flags=tuple(flags),
        degenerate=degenerate,
        schema_confirms=schema_confirms,
        overall=overall,
    )


# ---------------------------------------------------------------------------
# Bridge-atom world-space extension


@dataclass(frozen=True)
class BridgeSpec:
    new_atom: str
    prior: float
    likelihood_constraints: ConstraintSet | None = None  # over the extended space
    mode: str = "conservative"  # "conservative" | "revisionary"
    seed: int = 1
    refine_steps: int = 80

    def __post_init__(self):
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("bridge prior must lie in [0, 1]")
        if self.mode not in ("conservative", "revisionary"):
            raise ValueError(f"unknown extension mode {self.mode!r}")


class InfeasibleExtensionError(ValueError):
    """Bridge-extension constraints could not be satisfied within budget."""

    def __init__(self, message: str, best: JointDistribution, penalty: float):
        super().__init__(message)
        self.best = best
        self.penalty = penalty


def extended_space(space: WorldSpace, new_atom: str) -> WorldSpace:
    if new_atom in space.atoms:
        raise ValueError(f"atom {new_atom!r} already present in the space")
    return WorldSpace(space.atoms + (new_atom,))


def _assemble(old_weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Extended weights from old weights and per-world P(new atom | world).

    t is one vector (n,) or a block (k, n); the result has one row per row of t.
    """
    return np.concatenate([old_weights * (1.0 - t), old_weights * t], axis=-1)


def _repair_marginal(t: np.ndarray, weights: np.ndarray, prior: float) -> np.ndarray:
    """Adjust conditional probabilities so the new atom's marginal is exactly prior."""
    current = float(weights @ t)
    if current <= 0.0:
        return np.full_like(t, prior)
    if prior <= current:
        return t * (prior / current)
    if current >= 1.0:
        return t
    return 1.0 - (1.0 - t) * ((1.0 - prior) / (1.0 - current))


def extend_with_bridge(dist: JointDistribution, spec: BridgeSpec) -> JointDistribution:
    """Append a bridge atom to a distribution's space.

    Conservative mode preserves every old-atom joint marginal exactly: the
    search runs over the conditional probability of the new atom given each
    old world. Revisionary mode re-solves the full constraint set over the
    extended space. In both modes the new atom's marginal equals spec.prior.
    """
    new_space = extended_space(dist.space, spec.new_atom)
    n_old = dist.space.world_count

    if spec.mode == "revisionary":
        if spec.likelihood_constraints is None:
            raise ValueError("revisionary extension requires a constraint set")
        cs = spec.likelihood_constraints
        if cs.space != new_space:
            raise ValueError("constraint set must be over the extended space")
        # find_model meets an exact marginal equality by construction.
        prior_constraint = ProbConstraint(
            "equality",
            Side(target=Proposition.atom(new_space, spec.new_atom)),
            Side(const=spec.prior),
            label="bridge_prior",
        )
        full = ConstraintSet(space=new_space, constraints=cs.constraints + (prior_constraint,))
        result = find_model(full, SearchConfig(seed=spec.seed))
        if not result.found:
            raise InfeasibleExtensionError(
                "revisionary extension infeasible within budget",
                result.distribution,
                result.penalty,
            )
        return result.distribution

    # conservative mode
    old_w = dist.weights
    if spec.likelihood_constraints is None:
        t = np.full(n_old, spec.prior)
        return JointDistribution(new_space, _assemble(old_w, t))

    cs = spec.likelihood_constraints
    if cs.space != new_space:
        raise ValueError("constraint set must be over the extended space")
    compiled = CompiledConstraints(cs.constraints)

    def objective(t: np.ndarray):
        """Penalty plus squared marginal error, per row of t."""
        return compiled.penalty(_assemble(old_w, t)) + (t @ old_w - spec.prior) ** 2

    def extension(t: np.ndarray) -> JointDistribution:
        """The extended distribution for t, its bridge marginal repaired to the prior."""
        return JointDistribution(
            new_space, _assemble(old_w, _repair_marginal(t, old_w, spec.prior))
        )

    rng = np.random.default_rng(spec.seed)
    best_t = np.full(n_old, spec.prior if 0 < spec.prior < 1 else 0.5)
    best_p = objective(best_t)
    for _ in range(16):  # random restarts over conditional probabilities
        t = rng.uniform(0.02, 0.98, n_old)
        t, p = coordinate_descent(t, objective, _shift_move, 0.25, spec.refine_steps)
        if p < best_p:
            best_t, best_p = t, p
        if best_p < 1e-14:
            # An objective below 1e-14 can still miss a strict margin by
            # ~1e-8 (a squared hinge of ~1e-16), so only a satisfied
            # extension ends the restarts; after a miss the next candidate
            # must again come in below 1e-14.
            extended = extension(best_t)
            if is_satisfied(extended, cs):
                return extended
            best_p = 1e-14
    extended = extension(best_t)
    if not is_satisfied(extended, cs):
        raise InfeasibleExtensionError(
            "conservative extension constraints unsatisfied within budget",
            extended,
            _penalty(extended, cs),
        )
    return extended


def _shift_move(t: np.ndarray, signs: np.ndarray, delta) -> np.ndarray:
    """Move each conditional probability by delta * sign, clipped to [0, 1]."""
    return np.clip(t + delta * signs, 0.0, 1.0)


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


def _parse_side(data: dict, space: WorldSpace, where: str) -> Side:
    if "const" in data:
        return Side(const=float(data["const"]))
    if "target" not in data:
        raise ScenarioFormatError(f"{where}: side needs 'const' or 'target'")
    target = Proposition.parse(space, data["target"])
    given = Proposition.parse(space, data["given"]) if data.get("given") else None
    return Side(target=target, given=given)


def _parse_constraint(data: dict, space: WorldSpace, where: str) -> ProbConstraint:
    try:
        return ProbConstraint(
            kind=data["kind"],
            lhs=_parse_side(data["lhs"], space, where),
            rhs=_parse_side(data["rhs"], space, where),
            margin=float(data.get("margin", 0.0)),
            label=data.get("label"),
        )
    except KeyError as exc:
        raise ScenarioFormatError(f"{where}: missing constraint field {exc}") from None


def scenario_from_dict(data: dict, source_file: str | None = None) -> Scenario:
    where = source_file or data.get("name", "<scenario>")

    def require(key):
        if key not in data:
            raise ScenarioFormatError(f"{where}: missing field {key!r}")
        return data[key]

    name = require("name")
    atoms = require("atoms")
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ScenarioFormatError(f"{where}: field 'atoms' must be a list of strings")
    try:
        space = WorldSpace(tuple(atoms))
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: field 'atoms': {exc}") from None

    schema = require("schema")
    roles_data = require("roles")
    roles = {}
    for role in ROLE_NAMES:
        if role not in roles_data:
            raise ScenarioFormatError(f"{where}: field 'roles' missing {role!r}")
        try:
            roles[role] = Proposition.parse(space, roles_data[role])
        except ValueError as exc:
            raise ScenarioFormatError(f"{where}: field 'roles.{role}': {exc}") from None

    dist_data = require("distribution")
    weights = None
    margins: dict[str, float] = {}
    constraints: list[ProbConstraint] = []
    seed = 1
    if "weights" in dist_data:
        weights = tuple(float(x) for x in dist_data["weights"])
        if len(weights) != space.world_count:
            raise ScenarioFormatError(
                f"{where}: field 'distribution.weights' needs {space.world_count} entries"
            )
    else:
        margins = {str(k): float(v) for k, v in dist_data.get("margins", {}).items()}
        constraints = [
            _parse_constraint(c, space, f"{where}: distribution.constraints[{i}]")
            for i, c in enumerate(dist_data.get("constraints", []))
        ]
        seed = int(dist_data.get("seed", 1))
        if not margins and not constraints:
            raise ScenarioFormatError(
                f"{where}: field 'distribution' needs weights, margins, or constraints"
            )

    labels = data.get("condition_labels")
    if labels is not None:
        if len(labels) != 4:
            raise ScenarioFormatError(f"{where}: 'condition_labels' needs 4 entries")
        labels = tuple(labels)

    return Scenario(
        name=name,
        space=space,
        schema=schema,
        roles=roles,
        margins=margins,
        extra_constraints=tuple(constraints),
        weights=weights,
        seed=seed,
        condition_labels=labels,
        baseline=data.get("baseline"),
        notes=data.get("notes", ""),
        source_file=source_file,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
