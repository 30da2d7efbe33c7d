"""Statements of src/luryecycle that the tier-1 suite never runs.

    python3 tools/untraced.py [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: -q tests) under
sys.settrace and prints each statement of src/luryecycle/*.py that never
ran, as path:line: source, then per module the count of statements that
never ran out of all.  Tracing starts before luryecycle is imported, so
module-level statements count as run when the import runs them.  A
statement is one the ast names (docstrings left out) whose first line
holds bytecode; the lines of a statement past its first are not counted.
Tests that run the package in a subprocess do not count.  Only the
standard library and pytest are used, and nothing is written to the
checkout: no bytecode, no pytest cache.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "luryecycle"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements in path that hold bytecode."""
    text = path.read_text()
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0].lineno)
    stmts = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt)} - docstrings
    code_lines = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines()
                          if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return stmts & code_lines


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    import pytest  # before tracing, so pytest's own import is not traced

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in files:
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-p", "no:cacheprovider",
                              *(argv or ["-q", str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = []
    for name, path in files.items():
        lines = statement_lines(path)
        missed = sorted(lines - hits[name])
        source = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        counts.append((rel, len(missed), len(lines)))
    for rel, missed, total in counts:
        print(f"{rel}: {missed} of {total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
