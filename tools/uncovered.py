"""List the statements of `src/fgsam` that the tier-1 tests never execute.

    python3 tools/uncovered.py

Runs the tests under `tests/` in this process, with a line tracer that
records the lines executed in the files of `src/fgsam` and no others, then
prints, for every statement of those files whose first line never ran, its
`file:line`, the function or class that holds it and its text. pytest's
report and exit code go to standard error; the exit code is 0. Only the
standard library and pytest are needed. Threads started by the tests are
traced too; subprocesses are not.
"""

import ast
import contextlib
import os
import sys
import threading

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.realpath(os.path.join(ROOT, "src", "fgsam"))


def statements(source: str) -> dict:
    """First line -> (holder, text) of every statement in `source` that
    runs code: docstrings, which compile to no instruction, are left out.
    `holder` is the dotted name of the functions and classes around the
    statement, "" at module level, and `text` its first line, stripped."""
    lines = source.splitlines()
    found = {}

    def visit(node, holder):
        body = getattr(node, "body", None)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                continue
            docstring = (isinstance(body, list) and child is body[0]
                         and isinstance(child, ast.Expr)
                         and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if not docstring:
                found.setdefault(child.lineno, (
                    holder, lines[child.lineno - 1].strip()))
            inner = holder
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{holder}.{child.name}" if holder else child.name
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def missed(found: dict, executed) -> list:
    """(line, holder, text) of each statement in `found` (`statements`)
    whose first line is not in `executed`, in line order."""
    return [(line, *found[line]) for line in sorted(found)
            if line not in executed]


def trace_tests() -> tuple:
    """(pytest's exit code, path -> set of executed lines) of one in-process
    run of the tests, tracing only the files under `PACKAGE`."""
    executed, kept = {}, {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in kept:
            kept[path] = os.path.realpath(path).startswith(PACKAGE + os.sep)
            if kept[path]:
                executed[path] = set()
        return local if kept[path] else None

    import pytest

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider",
                                os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed


def main() -> int:
    code, executed = trace_tests()
    by_file = {os.path.realpath(p): lines for p, lines in executed.items()}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            found = statements(fh.read())
        for line, holder, text in missed(found, by_file.get(path, set())):
            print(f"src/fgsam/{name}:{line}  {holder or '<module>'}: {text}")
    print(f"pytest exit code {int(code)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
