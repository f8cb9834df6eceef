import pytest

from analogybench import Proposition, WorldSpace
from analogybench.formula import FormulaError, atom_names, parse, unparse

from conftest import DEEP_FORMULAS


def test_atom():
    assert parse("R") == ("atom", "R")


def test_precedence_and_binds_tighter():
    assert parse("a & b | c") == ("or", ("and", ("atom", "a"), ("atom", "b")), ("atom", "c"))
    assert parse("a | b & c") == ("or", ("atom", "a"), ("and", ("atom", "b"), ("atom", "c")))


def test_negation_and_parens():
    assert parse("!a & b") == ("and", ("not", ("atom", "a")), ("atom", "b"))
    assert parse("!(a | b)") == ("not", ("or", ("atom", "a"), ("atom", "b")))
    assert parse("!!a") == ("not", ("not", ("atom", "a")))


def test_atom_names():
    assert atom_names(parse("a & (b | !c)")) == {"a", "b", "c"}


def test_unparse_round_trip():
    for text in ["a", "!a", "a & b | c", "!(a | b) & c"]:
        node = parse(text)
        assert parse(unparse(node)) == node


@pytest.mark.parametrize("bad", ["", "a &", "& a", "(a", "a)", "a ? b", "a b"])
def test_rejects_malformed(bad):
    with pytest.raises(FormulaError):
        parse(bad)


@pytest.mark.parametrize("text", DEEP_FORMULAS.values(), ids=DEEP_FORMULAS)
def test_deep_formula_is_refused(text):
    with pytest.raises(FormulaError, match="deeper than 100 levels"):
        Proposition.parse(WorldSpace(("H",)), text)


# Each is exactly 100 levels deep: a tree of 100 "!", "&" or "|" on the way
# down to an atom, or 100 nested parentheses. One level more is refused.
@pytest.mark.parametrize("deep", [
    lambda k: " & ".join(["a"] * (k + 1)),
    lambda k: " | ".join(["a"] * (k + 1)),
    lambda k: "!" * k + "a",
    lambda k: "(" * k + "a" + ")" * k,
    lambda k: "!" * (k % 2) + "!(a & " * (k // 2) + "b" + ")" * (k // 2),
], ids=["and", "or", "not", "parentheses", "mixed"])
def test_depth_bound_is_100_levels(deep):
    space = WorldSpace(("a", "b"))
    at_bound = deep(100)
    node = parse(at_bound)
    assert parse(unparse(node)) == node and atom_names(node) <= {"a", "b"}
    assert Proposition.parse(space, at_bound).mask.shape == (4,)
    with pytest.raises(FormulaError, match="deeper than 100 levels"):
        parse(deep(101))
