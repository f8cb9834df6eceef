import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from analogybench import JointDistribution, Proposition, WorldSpace


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
