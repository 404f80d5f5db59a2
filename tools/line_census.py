"""Lines of the package that no test runs.

    python3 tools/line_census.py [PYTEST_ARGS ...]

Runs pytest in this process, from the repository root, under
``sys.settrace`` and ``threading.settrace``; with no arguments it runs
tier-1 (the ``testpaths`` of pyproject.toml).  Only the modules of
``src/symbidisk`` are traced.  It then prints every executable line that
never ran, one ``path:line: source`` per line, in file and line order, and
last ``N lines never ran``.

A module's executable lines are the lines its code objects map bytecode to
(``co_lines``), docstrings left out.  A line that only a subprocess runs,
such as ``python -m symbidisk.cli``, counts as never run.  The exit code is
pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "symbidisk")
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402  (imports nothing of the package)


def executable_lines(path: str) -> set[int]:
    """Lines of the module at ``path`` that carry bytecode, its docstrings left out."""
    with open(path) as fh:
        source = fh.read()
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit code, the lines that ran in each module of the package)."""
    ran: dict[str, set[int]] = {}
    local: dict[str, object] = {}

    def tracer_for(filename):
        if filename not in local:
            if os.path.dirname(os.path.abspath(filename)) != PACKAGE:
                local[filename] = None
            else:
                hits = ran.setdefault(os.path.abspath(filename), set())

                def trace_lines(frame, event, arg):
                    hits.add(frame.f_lineno)
                    return trace_lines

                local[filename] = trace_lines
        return local[filename]

    def trace_calls(frame, event, arg):
        trace = tracer_for(frame.f_code.co_filename)
        if trace is not None:
            trace(frame, event, arg)
        return trace

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(args=args)  # by keyword: not a call that passes cli.main its argv
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    code, ran = traced_run(sys.argv[1:])
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
