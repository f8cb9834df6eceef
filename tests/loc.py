"""Code lines per module of src/analogybench, and their total.

A code line is a line that holds at least one token other than a comment, a
line break or indentation, and that is not part of a statement-level string
(a docstring or any other string standing alone as a statement). So blank
lines, comment lines and docstrings are left out; a line that holds code and
a trailing comment counts once.

    python tests/loc.py [SRC_DIR]

SRC_DIR defaults to the package directory beside this script's tests/. The
name does not start with test_, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Lines of path that hold code, by the rule in the module docstring."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "analogybench"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
