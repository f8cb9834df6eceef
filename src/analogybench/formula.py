"""Parser for boolean formulas over named atoms.

Grammar (EBNF):

    expr    := term ("|" term)*
    term    := factor ("&" factor)*
    factor  := "!" factor | "(" expr ")" | atom
    atom    := [A-Za-z_][A-Za-z0-9_]*

"&" binds tighter than "|"; "!" binds tightest. A formula nests at most
_MAX_DEPTH = 100 levels: its tree is at most that deep, each "!", "&" and
"|" on the way from the root down to an atom one level (so a chain of k
"&" or "|" alone is k levels), and so are its parentheses. parse refuses a
deeper formula with FormulaError, which keeps the parser and the recursive
readers of its tree (atom_names, unparse, the evaluation in prob) far
inside Python's recursion limit. unparse nests its parentheses at most as
deep as the tree, so what it writes parses again.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(?:(?P<atom>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[!&|()]))")


class FormulaError(ValueError):
    """Raised when a formula string cannot be parsed."""


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise FormulaError(f"unexpected character {text[pos:].strip()[0]!r} in formula {text!r}")
            break
        tokens.append(m.group("atom") or m.group("punct"))
        pos = m.end()
    return tokens


#: The most levels a formula nests (see the module docstring).
_MAX_DEPTH = 100


def parse(text: str) -> tuple:
    """Parse a formula string into a nested-tuple AST.

    Nodes are ("atom", name), ("not", node), ("and", a, b), ("or", a, b);
    a chain is nested to the left. One pass over the tokens, by index.
    """
    tokens = tokenize(text)
    if not tokens:
        raise FormulaError("empty formula")
    parser = _Parser(tokens)
    node, _ = parser.expr(0)
    if parser.pos < len(tokens):
        raise FormulaError(f"trailing tokens {tokens[parser.pos:]!r} in formula {text!r}")
    return node


class _Parser:
    """Recursive descent over a token list, by index.

    Each reader takes the parentheses enclosing it and returns its node and
    the node's height, the tree levels below it; both are checked against
    _MAX_DEPTH as they grow, so the descent, which recurses only into
    parentheses, stays within _MAX_DEPTH of them.
    """

    def __init__(self, tokens: list[str]):
        # "" marks the end, so a reader looks one token ahead unchecked.
        self.tokens, self.pos = [*tokens, ""], 0

    def expr(self, parens: int) -> tuple[tuple, int]:
        node, height = self.term(parens)
        while self.tokens[self.pos] == "|":
            self.pos += 1
            rhs, rhs_height = self.term(parens)
            node, height = ("or", node, rhs), _levels(max(height, rhs_height) + 1)
        return node, height

    def term(self, parens: int) -> tuple[tuple, int]:
        node, height = self.factor(parens)
        while self.tokens[self.pos] == "&":
            self.pos += 1
            rhs, rhs_height = self.factor(parens)
            node, height = ("and", node, rhs), _levels(max(height, rhs_height) + 1)
        return node, height

    def factor(self, parens: int) -> tuple[tuple, int]:
        start = self.pos
        while self.tokens[self.pos] == "!":
            self.pos += 1
        nots = self.pos - start
        head = self.tokens[self.pos]
        self.pos += 1
        if head == "(":
            node, height = self.expr(_levels(parens + 1))
            if self.tokens[self.pos] != ")":
                raise FormulaError("unbalanced parentheses")
            self.pos += 1
        elif head in {"&", "|", ")"}:
            raise FormulaError(f"unexpected token {head!r}")
        elif not head:
            raise FormulaError("unexpected end of formula")
        else:
            node, height = ("atom", head), 0
        if nots:
            height = _levels(height + nots)
            for _ in range(nots):
                node = ("not", node)
        return node, height


def _levels(levels: int) -> int:
    """levels, unless it is past _MAX_DEPTH."""
    if levels > _MAX_DEPTH:
        raise FormulaError(f"formula nests deeper than {_MAX_DEPTH} levels")
    return levels


def atom_names(node: tuple) -> set[str]:
    kind = node[0]
    if kind == "atom":
        return {node[1]}
    if kind == "not":
        return atom_names(node[1])
    return atom_names(node[1]) | atom_names(node[2])


def unparse(node: tuple) -> str:
    """Render an AST back to the concrete syntax (fully parenthesized binaries)."""
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind == "not":
        inner = unparse(node[1])
        if node[1][0] != "atom":
            inner = f"({inner})"
        return f"!{inner}"
    op = "&" if kind == "and" else "|"
    return f"({unparse(node[1])} {op} {unparse(node[2])})"
