"""Statements in src/aqcc function bodies that no test runs.

Run from the repository root, on demand (it takes about 4-6 minutes on a
2-vCPU Xeon, and pytest does not collect it, its name not being test_*):

    PYTHONPATH=src python tests/unreached.py [extra pytest arguments]

It runs the tier-1 suite, tests/, in this process under sys.settrace and
records every line that runs in a file of src/aqcc.  A statement counts
when it lies in a function body, docstrings left out, and its first line
compiles to code.  The script prints each such statement whose first line
never ran, as path:line and the line's text, then their count and the
exit status pytest gave.  Lines that run only in a subprocess are not
seen, and the tracing slows every test, so a test that guards its own
wall time may fail here and leave its lines unreached.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aqcc"


def code_lines(code) -> set[int]:
    """Every line number the code object, or one nested in it, compiles to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def body_statements(path: Path) -> set[int]:
    """First lines of the statements in path's function bodies that compile
    to code; a docstring compiles to none."""
    tree = ast.parse(path.read_text(), str(path))
    compiled = code_lines(compile(tree, str(path), "exec"))
    out = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in fn.body:
                out.update(node.lineno for node in ast.walk(stmt)
                           if isinstance(node, ast.stmt) and node.lineno in compiled)
    return out


def traced(fn):
    """fn() run in this process under sys.settrace: its result and each
    function-body statement of src/aqcc whose first line it never ran, as
    "path:line: text".  The statements are read before fn runs, so a
    source file edited during the run does not shift them."""
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        text = path.read_text().splitlines()
        statements += [((real, line), f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
                       for line in sorted(body_statements(path))]
    executed: set[tuple[str, int]] = set()
    inside: dict[str, str | None] = {}
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(prefix) else None
        return local if inside[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, [where for key, where in statements if key not in executed]


def main(args: list[str]) -> int:
    status, missed = traced(lambda: int(pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])))
    for where in missed:
        print(where)
    print(f"{len(missed)} unreached statements in src/aqcc function bodies "
          f"(pytest exit status {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
