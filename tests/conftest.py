import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from analogybench import (
    ConstraintSet, JointDistribution, ProbConstraint, Proposition, SearchConfig, Side, WorldSpace,
)


@pytest.fixture
def ab_space():
    return WorldSpace(("a", "b"))


@pytest.fixture
def ab_dist(ab_space):
    # weights {a&b: 0.3, a&!b: 0.2, !a&b: 0.1, !a&!b: 0.4}; world bit 0 is a, bit 1 is b
    return JointDistribution(ab_space, [0.4, 0.2, 0.1, 0.3])


@pytest.fixture
def xyz_space():
    return WorldSpace(("x", "y", "z"))


def random_distribution(space: WorldSpace, rng: np.random.Generator) -> JointDistribution:
    return JointDistribution.from_unnormalized(
        space, rng.standard_exponential(space.world_count)
    )


def random_proposition(space: WorldSpace, rng: np.random.Generator) -> Proposition:
    mask = rng.integers(0, 2, space.world_count).astype(bool)
    return Proposition(space, mask)


def exact_value(side, weights):
    """A side's value in exact Fraction arithmetic; None if undefined.

    Each float weight is read exactly (a float is a dyadic rational), and
    P(target) is divided by the exact total, which renormalises.
    """
    if side.is_const:
        return Fraction(side.const)
    w = [Fraction(float(x)) for x in weights]
    given = side.given.mask if side.given is not None else np.ones(len(w), dtype=bool)
    den = sum((x for x, g in zip(w, given) if g), Fraction(0))
    if den == 0:
        return None
    num = sum((x for x, t, g in zip(w, side.target.mask, given) if t and g), Fraction(0))
    return num / den


def exact_satisfied(constraints, weights) -> bool:
    """Whether every constraint holds at its margin with no float tolerance."""
    for c in constraints:
        lhs, rhs = exact_value(c.lhs, weights), exact_value(c.rhs, weights)
        if lhs is None or rhs is None:
            return False
        margin = Fraction(c.margin)
        if c.kind == "equality":
            holds = abs(lhs - rhs) <= margin
        elif c.kind == "prob_lt":
            holds = rhs - lhs > margin
        elif c.kind == "cond_ge_cond":
            holds = lhs - rhs >= margin
        else:
            holds = lhs - rhs > margin
        if not holds:
            return False
    return True


def random_event(space: WorldSpace, rng) -> Proposition:
    """A proposition true in some world of space and false in another."""
    while True:
        mask = rng.integers(0, 2, space.world_count).astype(bool)
        if 0 < mask.sum() < space.world_count:
            return Proposition(space, mask)


def planted_witness(seed: int, atoms: int, frac: tuple[float, float] = (0.8, 0.9),
                    alpha: float = 0.5, zero_frac: float = 0.0):
    """3-4*atoms cond_gt_cond constraints, a search config, and a joint that meets them.

    The joint is Dirichlet(alpha) over the worlds, each world then zeroed at
    chance zero_frac (no draw is made when zero_frac is 0) and the rest
    renormalised. Each margin is a fraction of the constraint's gap under the
    joint (which is therefore a witness), drawn from frac: 0.8-0.9, the tight
    tier, by default, and 0.5 for the slack tier. Every conditioning event has
    probability >= 0.05 and every gap is >= 0.05.
    """
    rng = np.random.default_rng([atoms, seed])
    space = WorldSpace(tuple(f"A{i}" for i in range(atoms)))
    joint = rng.dirichlet(np.full(space.world_count, alpha))
    if zero_frac:
        joint[rng.random(space.world_count) < zero_frac] = 0.0
        joint /= joint.sum()
    count = int(rng.integers(3 * atoms, 4 * atoms + 1))
    constraints = []
    while len(constraints) < count:
        t1, g1, t2, g2 = (random_event(space, rng) for _ in range(4))
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
            "cond_gt_cond", lhs, rhs, margin=float(rng.uniform(*frac) * gap),
            label=f"c{len(constraints)}"))
    config = SearchConfig(seed=int(rng.integers(1, 2**31 - 1)))
    return ConstraintSet(space, constraints), config, joint


def planted_set(seed: int, atoms: int, frac: tuple[float, float] = (0.8, 0.9),
                alpha: float = 0.5, zero_frac: float = 0.0) -> tuple[ConstraintSet, SearchConfig]:
    """planted_witness's constraint set and search config."""
    return planted_witness(seed, atoms, frac, alpha, zero_frac)[:2]


def sparse_witness(seed: int):
    """planted_witness at 5 atoms and margins 0.9-0.99 of the gap, from a
    Dirichlet(0.2) joint with each world zeroed at chance 0.5."""
    return planted_witness(seed, 5, (0.9, 0.99), alpha=0.2, zero_frac=0.5)


#: A known-answer list: the seeds s in 0-199 whose sparse_witness set
#: find_model misses under its own config (12 of 200 when the list was made).
#: Each joint sits on a face of the simplex, with 12-20 of its 32 worlds
#: zeroed. Every miss stalled and spent the default budget of 100 000 samples
#: and 9 refines, ending at a best penalty of 1.5e-13 to 9.3e-5.
SPARSE_MISSES = [40, 47, 90, 119, 120, 139, 151, 156, 180, 189, 192, 198]


#: Formulas too deep for the parser, over the one atom H: each is refused
#: with FormulaError, never a RecursionError.
DEEP_FORMULAS = {
    "and-chain-1500": " & ".join(["H"] * 1500),
    "not-1500": "!" * 1500 + "H",
    "parentheses-1200": "(" * 1200 + "H" + ")" * 1200,
    "or-chain-20000": " | ".join(["H"] * 20_000),
}


ROOT = Path(__file__).resolve().parents[1]


def child_env():
    """This environment with src/ first on PYTHONPATH, for a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                     env.get("PYTHONPATH")]))
    return env


# The head of a capped child (see run_capped): once the modules a command
# loads are imported, where /proc reports its size, the child may grow its
# address space by 256 MiB more.
_CAP = """
import resource, sys
from analogybench import scenarios
from analogybench.cli import main

try:
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
except OSError:
    pass
else:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size + 2**28
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
"""

#: A capped child's body that runs the CLI on its arguments.
RUN_CLI = "sys.exit(main(sys.argv[1:]))"


def run_capped(body: str, *argv: str, timeout: float = 30) -> subprocess.CompletedProcess:
    """Run body in a child interpreter, with argv as its sys.argv[1:].

    For a test whose guard, if it regressed, would hang or exhaust memory:
    the child's address space is capped at 256 MiB above its size after
    importing analogybench.scenarios and analogybench.cli (names body may
    use, beside sys and main), so a runaway allocation fails with
    MemoryError, and a child still running after timeout seconds fails the
    test.
    """
    return subprocess.run([sys.executable, "-c", _CAP + body, *argv], capture_output=True,
                          text=True, timeout=timeout, env=child_env())
