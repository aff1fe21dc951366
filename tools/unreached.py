"""List the statements of ``cycledescent`` that no tier-1 test runs.

Runs the tier-1 tests in this process under a ``sys.settrace`` line tracer
and prints, per module of ``src/cycledescent``, the statement lines that
never ran.  The statement lines come from ``ast``: the first line of every
statement, except docstrings and bare annotations inside functions, which
compile to no code.  Standard library and pytest only; ``coverage`` is not
needed.

    python tools/unreached.py [extra pytest arguments]

It deselects ``test_criterion_10_full_verification_run``, the full
``verify all`` run, which reaches nothing the other tests miss and would
take most of the traced time.  Code that runs only in pool workers is not
seen, as the tracer lives in this process.  Tracing slows the suite down
about fourfold.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycledescent"
DESELECT = "tests/test_acceptance.py::test_criterion_10_full_verification_run"


def statement_lines(path: Path) -> set[int]:
    """The first line of every statement of a module that compiles to code."""
    tree = ast.parse(path.read_text(), str(path))
    lines = set()
    for node in ast.walk(tree):
        in_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if not isinstance(block, list):
                continue  # the body of a lambda or an if-expression
            for stmt in block:
                docstring = (
                    name == "body"
                    and stmt is block[0]
                    and isinstance(stmt, ast.Expr)
                    and isinstance(getattr(stmt.value, "value", None), str)
                )
                bare = in_function and isinstance(stmt, ast.AnnAssign) and stmt.value is None
                if not (docstring or bare):
                    lines.add(stmt.lineno)
    return lines


def main(argv: list[str]) -> int:
    executed: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before tracing starts; the package is not

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT, *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(
            line for line in statement_lines(path) if (str(path), line) not in executed
        )
        total += len(missed)
        print(f"{path.name}: {len(missed)}" + (f" (lines {missed})" if missed else ""))
    print(f"total: {total} statements not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
