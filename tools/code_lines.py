"""Count the code lines of Python modules: every line that holds a token of
code, so comments, docstrings and blank lines are not counted.

A docstring is a string statement standing alone on its logical line, as
`tokenize` reads it. A statement spread over several lines counts each line
it touches.

Usage: python tools/code_lines.py [FILE ...]
(default: src/pairing_tsp/*.py beside this script). Prints each module's
count and the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens that are layout, never code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type == tokenize.NEWLINE or token.type == tokenize.ENDMARKER:
                # a logical line of one string is a docstring
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif token.type not in _LAYOUT:
                statement.append(token)
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (Path(__file__).resolve().parent.parent / "src" / "pairing_tsp").glob("*.py")
    )
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
