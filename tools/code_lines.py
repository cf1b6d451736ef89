"""Count the code lines of Python sources.

A code line holds at least one token that is not a comment, a docstring, a
line break or an indentation change, so blank lines, comment lines and the
lines of docstrings (a string that is a statement of its own) do not count.

Usage:  python3 tools/code_lines.py [PATH ...]   (default: src/varheat)

Prints the count of each file and the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.NL, tokenize.COMMENT}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
           tokenize.ENCODING}


def code_lines(path) -> int:
    """The number of code lines in the Python file ``path``."""
    with open(path, "rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type not in _SKIPPED]
    lines = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (tok.type == tokenize.STRING and before.type in _LAYOUT
                     and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src" / "varheat"]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
