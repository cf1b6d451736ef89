"""List the statements of src/varheat that the test suite never executes.

Runs pytest in this process under the standard library's ``sys.settrace``
(and ``threading.settrace`` for the threads the tests start), then prints
each statement of ``src/varheat`` that no traced line reached, as
``path:line`` and the statement's first line.  A statement is a simple
statement with all its lines, or the header of a compound one (``if``,
``for``, ``def``, ...); statements without bytecode, such as docstrings
in functions, are not counted.

Code that the tests run in a subprocess (the demo scripts of
``tests/test_demos.py``, for one) is not traced, so what only a subprocess
executes is listed as never executed.  The output says so.

Usage:  python3 tools/untested_lines.py [PYTEST ARGS ...]   (default: tests)
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "varheat"


def _bytecode_lines(code: types.CodeType) -> set:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _bytecode_lines(const)
    return lines


def _statements(source: str, filename: str):
    """(first line, line range) of each statement of a module."""
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            yield node.lineno, range(node.lineno, max(end, node.lineno) + 1)


def untested(path: Path, executed: set) -> list:
    """(line, text) of each statement of ``path`` that has bytecode but no
    line in ``executed``."""
    source = path.read_text()
    code_lines = _bytecode_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return sorted((first, text[first - 1].strip())
                  for first, span in _statements(source, str(path))
                  if code_lines.intersection(span) and not executed.intersection(span))


def run_traced(pytest_args) -> tuple:
    """Run pytest under the tracer; (exit code, {file: executed lines})."""
    import pytest

    prefix = str(SRC) + os.sep
    seen = {}  # co_filename -> executed lines, or None outside src/varheat

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = set() if os.path.abspath(name).startswith(prefix) else None
        lines = seen[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    executed = {}
    for name, lines in seen.items():
        if lines is not None:
            executed.setdefault(os.path.abspath(name), set()).update(lines)
    return int(code), executed


def main(argv):
    code, executed = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = 0
    print(f"\npytest exit code {code}.  Not traced: code that tests run in subprocesses.")
    for path in sorted(SRC.rglob("*.py")):
        missing = untested(path, executed.get(str(path), set()))
        total += len(missing)
        for line, text in missing:
            print(f"{path.relative_to(ROOT)}:{line}  {text}")
    print(f"{total} statements never executed")


if __name__ == "__main__":
    main(sys.argv[1:])
